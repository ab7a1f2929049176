"""Sharded serving tier: routing units and end-to-end parity.

The acceptance bar of the scale-out work: a sharded study must be *invisible*
to the data contract.  Per-client sample counts match the single-server
in-process study exactly, nothing drops, and the PR 5 failure protocol —
kill, restart, resend, dedup — works per shard with the restarted client
returning to the shard that holds its message log.
"""

import time
from dataclasses import replace
from typing import Iterator, Tuple

import numpy as np
import pytest

from fault_clients import HangingClient
from repro.buffers import FIFOBuffer
from repro.client.simulation_client import SimulationClient
from repro.experiments.common import ExperimentScale, build_case, run_online_with_buffer
from repro.launcher.launcher import ClientSpec, Launcher, LauncherConfig
from repro.parallel.shm_ring import ShmRingTransport
from repro.parallel.transport import ShardOptions, TransportConfig, TransportStats
from repro.server.aggregator import DataAggregator
from repro.server.fault import HeartbeatMonitor, MessageLog
from repro.server.sharding import (
    HashRing,
    ShardedHeartbeatMonitor,
    ShardedTransport,
    aggregate_transport_stats,
)
from repro.utils.exceptions import ConfigurationError

DEADLINE = 30.0


# ------------------------------------------------------------- stats folding
def _stats(messages, per_rank, kills=0):
    stats = TransportStats()
    stats.messages_routed = messages
    stats.bytes_routed = messages * 100
    stats.per_rank_messages = dict(per_rank)
    stats.ring_depth_high_water = {rank: 3 for rank in per_rank}
    stats.unresponsive_kills = kills
    return stats


def test_aggregate_transport_stats_rekeys_per_rank_maps_by_global_rank():
    total = aggregate_transport_stats(
        [_stats(10, {0: 6, 1: 4}), _stats(20, {0: 12, 1: 8}, kills=1)],
        ranks_per_shard=2,
        extra_kills=2,
    )
    assert total.messages_routed == 30
    assert total.bytes_routed == 3000
    # Shard 1's ranks land at global ranks 2 and 3 — no collision, the
    # aggregate still breaks down per aggregator thread.
    assert total.per_rank_messages == {0: 6, 1: 4, 2: 12, 3: 8}
    assert sorted(total.ring_depth_high_water) == [0, 1, 2, 3]
    assert total.unresponsive_kills == 3
    assert total.dropped_messages == 0
    assert total.torn_batches == 0


def test_sharded_transport_rejects_mismatched_geometry():
    shards = [
        ShmRingTransport(num_server_ranks=1, max_concurrent_clients=1,
                         ring_slots=2, ring_slot_bytes=1024)
        for _ in range(2)
    ]
    try:
        with pytest.raises(ConfigurationError):
            ShardedTransport(shards, HashRing(3))  # 2 transports, 3-shard ring
        with pytest.raises(ConfigurationError):
            ShardedTransport([], HashRing(1))
    finally:
        for shard in shards:
            shard.shutdown()


def test_sharded_heartbeat_monitor_routes_to_the_owning_shard():
    ring = HashRing(2)
    monitors = [HeartbeatMonitor(), HeartbeatMonitor()]
    sharded = ShardedHeartbeatMonitor(ring, monitors)

    # Ids 0 and 7 live on different shards of the default ring; each shard's
    # aggregators feed its own monitor.
    assert ring.shard_for(0) != ring.shard_for(7)
    monitors[ring.shard_for(0)].touch(0)
    monitors[ring.shard_for(7)].touch(7)
    monitors[ring.shard_for(7)].mark_finished(7)

    assert not sharded.is_finished(0)
    assert sharded.is_finished(7)
    assert sharded.silence(0) is not None
    assert sharded.silence(7) is None  # finished clients are no longer watched
    # The launcher's two queries reach the owning shard only.
    assert monitors[ring.shard_for(7)].silence(0) is None  # never seen there
    assert not monitors[ring.shard_for(0)].is_finished(7)


# ----------------------------------------------- end-to-end study parity (shm)
@pytest.fixture(scope="module")
def shard_scale() -> ExperimentScale:
    return replace(
        ExperimentScale(),
        nx=8,
        ny=8,
        num_steps=8,
        num_simulations=8,
        hidden_sizes=(8, 8),
        buffer_capacity=32,
        buffer_threshold=4,
        client_step_delay=0.0,
        inter_series_delay=0.0,
        batch_compute_delay=0.0,
        max_concurrent_clients=2,
    )


def test_sharded_shm_study_matches_single_server_inproc_exactly(shard_scale):
    """Acceptance: sharding changes where samples land, never how many."""
    case = build_case(shard_scale)
    expected_unique = shard_scale.num_simulations * shard_scale.num_steps
    assignment = HashRing(2).partition(range(shard_scale.num_simulations))
    assert all(assignment.values()), "scale must occupy both shards"

    sharded = run_online_with_buffer(
        "fifo", scale=shard_scale, case=case, use_series=False,
        transport=TransportConfig(
            backend="shm", batch_size=4,
            shard=ShardOptions(num_shards=2),
        ),
    )
    single = run_online_with_buffer(
        "fifo", scale=shard_scale, case=case, use_series=False,
    )

    # Exact per-client parity with the single-server in-process study.
    assert sharded.launcher.per_client_steps == single.launcher.per_client_steps
    assert sharded.launcher.total_steps_sent == single.launcher.total_steps_sent
    for result, label in ((sharded, "sharded"), (single, "single")):
        received = sum(s.samples_received for s in result.server.aggregator_stats)
        assert received == expected_unique, label
        assert result.launcher.clients_completed == shard_scale.num_simulations, label
        assert result.launcher.clients_failed == 0, label
        assert np.isfinite(result.metrics.losses.final_training_loss), label

    # The merged result reports the shard dimension and the ring assignment:
    # its aggregator stats are shard-major, so each shard's ranks saw exactly
    # the clients the ring assigned to it, and all of their steps.
    assert sharded.server.summary["num_shards"] == 2.0
    ranks_per_shard = len(sharded.server.aggregator_stats) // 2
    for shard, clients in assignment.items():
        shard_stats = sharded.server.aggregator_stats[
            shard * ranks_per_shard:(shard + 1) * ranks_per_shard]
        assert set().union(*(s.clients_finished for s in shard_stats)) == set(clients)
        assert (sum(s.samples_received for s in shard_stats)
                == len(clients) * shard_scale.num_steps)

    # Cluster-level transport accounting: every unique step plus the
    # hello/finished control pair per client, nothing dropped, nothing torn.
    stats = sharded.server.transport_stats
    assert stats.messages_routed == expected_unique + 2 * shard_scale.num_simulations
    assert stats.dropped_messages == 0
    assert stats.torn_batches == 0
    assert stats.unresponsive_kills == 0
    assert sharded.server.duplicates_discarded == 0


# ----------------------------------------- kill + reconnect on a sharded tier
NUM_STEPS = 8
FIELD_SIZE = 16


class TinySolver:
    """Deterministic stand-in solver with a fixed per-step delay."""

    def __init__(self, step_delay: float = 0.01) -> None:
        self.step_delay = step_delay

    def iter_steps(self, params) -> Iterator[Tuple[int, float, np.ndarray]]:
        for step in range(1, NUM_STEPS + 1):
            time.sleep(self.step_delay)
            field = np.full(FIELD_SIZE, float(step), dtype=np.float32)
            yield step, step * 0.1, field


def test_killed_client_reconnects_to_its_own_shard_and_is_deduplicated():
    """Heartbeat kill + restart across the sharded front door.

    Client 7 (shard B on the default 2-shard ring) hangs mid-stream; the
    launcher watchdog kills it and the restarted process reconnects — through
    the deterministic ring — to the *same* shard, whose message log discards
    the resent prefix.  The other shard never sees a duplicate, and the
    cluster-level sample totals are unchanged.
    """
    ring = HashRing(2)
    client_ids = [0, 1, 7]  # ids 0/1 -> one shard, 7 -> the other
    assignment = ring.partition(client_ids)
    assert sorted(len(v) for v in assignment.values()) == [1, 2]
    hang_id = 7

    transports = [
        ShmRingTransport(num_server_ranks=1, max_concurrent_clients=2,
                         ring_slots=16, ring_slot_bytes=8192)
        for _ in range(2)
    ]
    router = ShardedTransport(transports, ring)
    monitors = [HeartbeatMonitor() for _ in range(2)]
    aggregators = []
    for shard, transport in enumerate(transports):
        aggregators.append(
            DataAggregator(
                rank=0,
                router=transport,
                buffer=FIFOBuffer(capacity=10 * NUM_STEPS * len(client_ids)),
                expected_clients=len(assignment[shard]),
                message_log=MessageLog(),
                heartbeat_monitor=monitors[shard],
            )
        )
    sharded_monitor = ShardedHeartbeatMonitor(ring, monitors)

    def client_factory(spec: ClientSpec) -> SimulationClient:
        kind = HangingClient if spec.client_id == hang_id else SimulationClient
        return kind(
            client_id=spec.client_id,
            parameters=(1.0, 2.0),
            solver=TinySolver(),
            router=router,
            num_time_steps=NUM_STEPS,
        )

    specs = [ClientSpec(client_id=client_id, parameters=np.asarray([1.0, 2.0]))
             for client_id in client_ids]
    launcher = Launcher(
        client_factory,
        specs,
        LauncherConfig(client_mode="process", heartbeat_timeout=0.5, max_restarts=2),
        heartbeat_monitor=sharded_monitor,
    )

    for aggregator in aggregators:
        aggregator.start()
    try:
        report = launcher.run()
        deadline = time.monotonic() + DEADLINE
        while (not all(a.reception_complete for a in aggregators)
               and time.monotonic() < deadline):
            time.sleep(0.02)
    finally:
        for aggregator in aggregators:
            aggregator.stop()
        router.shutdown()

    # Exactly one kill and one restart; every client finished.
    assert report.unresponsive_kills == 1
    assert report.restarts == 1
    assert report.clients_completed == len(client_ids)
    assert report.clients_failed == 0
    assert router.stats.unresponsive_kills == 1

    # Dedup happened on the hanging client's shard and only there: the
    # restart reconnected to the same shard, so its message log caught the
    # resent prefix, and the cluster totals are exactly the unique counts.
    hang_shard = ring.shard_for(hang_id)
    for shard, aggregator in enumerate(aggregators):
        assert aggregator.reception_complete
        assert aggregator.stats.samples_received == len(assignment[shard]) * NUM_STEPS
        if shard == hang_shard:
            assert aggregator.stats.duplicates_discarded >= 1
        else:
            assert aggregator.stats.duplicates_discarded == 0
