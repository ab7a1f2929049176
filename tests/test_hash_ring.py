"""Property-based tests (hypothesis) of the consistent-hash ring.

Three invariants carry the sharded serving tier:

* **Determinism** — placement is a pure function of (shard ids, replica
  count, client id), so every process of a study computes the same assignment and
  a restarted client returns to the shard holding its dedup log and lease.
* **Balance** — with the default replica count, client load spreads across
  shards within a bounded max/min ratio (no shard is starved or doubled-up
  beyond the bound).
* **Bounded remapping** — a shard joining only pulls keys onto itself, and
  a shard leaving only moves its own keys; every other client keeps its
  shard, which is what makes elastic join/leave cheap.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.server import sharding
from repro.server.sharding import HashRing
from repro.utils.exceptions import ConfigurationError

#: Enough sequential ids to exercise the spread (studies number clients 0..N-1).
CLIENT_IDS = range(1200)

#: Loose but meaningful spread bound: with >= 64 virtual nodes per shard the
#: measured max/min load ratio sits around 1.2-1.6; 2.5 leaves noise margin
#: while still failing a degenerate ring (one shard owning everything).
MAX_LOAD_RATIO = 2.5


# ----------------------------------------------------------------- determinism
@settings(max_examples=40, deadline=None)
@given(
    num_shards=st.integers(min_value=1, max_value=8),
    replicas=st.integers(min_value=1, max_value=128),
    client_id=st.integers(min_value=0, max_value=2**31),
)
def test_placement_is_deterministic_across_ring_instances(num_shards, replicas, client_id):
    with mock.patch.object(sharding, "HASH_RING_REPLICAS", replicas):
        first = HashRing(num_shards)
        second = HashRing(num_shards)
    assert first.shard_for(client_id) == second.shard_for(client_id)
    assert first.shard_for(client_id) in first.shards


@settings(max_examples=20, deadline=None)
@given(num_shards=st.integers(min_value=1, max_value=8))
def test_partition_agrees_with_shard_for(num_shards):
    ring = HashRing(num_shards)
    assignment = ring.partition(range(300))
    assert sorted(assignment) == list(ring.shards)
    for shard, clients in assignment.items():
        for client_id in clients:
            assert ring.shard_for(client_id) == shard
    assert sum(len(clients) for clients in assignment.values()) == 300


# --------------------------------------------------------------------- balance
@settings(max_examples=15, deadline=None)
@given(num_shards=st.integers(min_value=2, max_value=8))
def test_load_spread_is_bounded_at_default_replicas(num_shards):
    ring = HashRing(num_shards)
    loads = [len(clients) for clients in ring.partition(CLIENT_IDS).values()]
    assert min(loads) > 0, "a shard received no clients at all"
    assert max(loads) / min(loads) <= MAX_LOAD_RATIO, loads


def test_more_replicas_keep_the_spread_bounded():
    for replicas in (64, 128, 256):
        with mock.patch.object(sharding, "HASH_RING_REPLICAS", replicas):
            ring = HashRing(4)
        loads = [len(clients) for clients in ring.partition(CLIENT_IDS).values()]
        assert max(loads) / min(loads) <= MAX_LOAD_RATIO, (replicas, loads)


# ------------------------------------------------------------ bounded remapping
@settings(max_examples=20, deadline=None)
@given(num_shards=st.integers(min_value=1, max_value=7))
def test_shard_join_only_pulls_keys_onto_the_new_shard(num_shards):
    before = HashRing(num_shards)
    after = HashRing(range(num_shards + 1))
    moved = 0
    for client_id in CLIENT_IDS:
        old, new = before.shard_for(client_id), after.shard_for(client_id)
        if old != new:
            assert new == num_shards, "a join moved a key between surviving shards"
            moved += 1
    # The new shard owns ~1/(N+1) of the keys; allow generous measurement slack
    # but fail a rebuild-everything ring (which would remap ~N/(N+1)).
    assert moved <= 2.5 * len(CLIENT_IDS) / (num_shards + 1)


@settings(max_examples=20, deadline=None)
@given(
    num_shards=st.integers(min_value=2, max_value=8),
    departing=st.integers(min_value=0, max_value=7),
)
def test_shard_leave_only_moves_the_departed_shards_keys(num_shards, departing):
    departing = departing % num_shards
    before = HashRing(num_shards)
    after = HashRing(shard for shard in range(num_shards) if shard != departing)
    assert departing not in after.shards
    for client_id in CLIENT_IDS:
        old = before.shard_for(client_id)
        if old == departing:
            assert after.shard_for(client_id) != departing
        else:
            assert after.shard_for(client_id) == old, (
                "a leave moved a key owned by a surviving shard"
            )


def test_join_then_leave_round_trips_every_placement():
    ring = HashRing(4)
    joined = HashRing(range(5))
    round_tripped = HashRing(shard for shard in joined.shards if shard != 4)
    for client_id in CLIENT_IDS:
        assert ring.shard_for(client_id) == round_tripped.shard_for(client_id)


# ------------------------------------------------------------------ validation
def test_ring_rejects_bad_geometry():
    with pytest.raises(ConfigurationError):
        HashRing(0)
    with pytest.raises(ConfigurationError):
        HashRing([1, 1])
    with pytest.raises(ConfigurationError):
        HashRing([])
