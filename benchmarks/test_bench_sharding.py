"""Sharded front door under forked-client stress.

Eight forked client processes stream disjoint batched streams through the
real sharded front door (hash ring over shm ring transports) at 1, 2 and 4
shards.  Delivery is asserted exactly — every message lands on the shard the
ring owns it to, nothing dropped, nothing torn.  Each shard's transport is
drained directly, as that shard's aggregator does.  The aggregate drain rates
are printed for orientation only: every shard's drain runs in this one
process, so their ratio says nothing about scale-out.
"""

import multiprocessing
import time
from collections import Counter

from transport_fixture import BATCH_SIZE, drain_samples, make_batch

from repro.parallel.shm_ring import ShmRingTransport
from repro.server.sharding import HashRing, ShardedTransport

#: Test processes are forked, like the launcher's clients.
FORK = multiprocessing.get_context("fork")

BATCHES_PER_PRODUCER = 40
REPEATS = 2
RING_SLOT_BYTES = 16_384

#: Producer client ids chosen so the 4-shard ring assigns two to every shard
#: (ids are deterministic: the ring is a pure hash).  The same ids also load
#: both shards of the 2-shard ring.
CLIENT_IDS = (0, 1, 2, 3, 4, 10, 14, 16)
MESSAGES_TOTAL = len(CLIENT_IDS) * BATCHES_PER_PRODUCER * BATCH_SIZE

STREAMS = {
    client_id: [
        make_batch(index * BATCH_SIZE, client_id=client_id)
        for index in range(BATCHES_PER_PRODUCER)
    ]
    for client_id in CLIENT_IDS
}


def _producer(router, client_id):
    # A study client pushes to the shard transport its connection is bound to.
    transport = router.transport_for(client_id)
    for batch in STREAMS[client_id]:
        transport.push_many(0, batch)


def _build_router(num_shards: int) -> ShardedTransport:
    shards = [
        ShmRingTransport(
            num_server_ranks=1,
            max_concurrent_clients=len(CLIENT_IDS),
            ring_slots=BATCHES_PER_PRODUCER + 8,
            ring_slot_bytes=RING_SLOT_BYTES,
        )
        for _ in range(num_shards)
    ]
    return ShardedTransport(shards, HashRing(num_shards))


def _pump(router) -> float:
    """Aggregate drain rate with all producers live (best of REPEATS runs)."""
    for client_id in CLIENT_IDS:
        router.lease_client(client_id)  # on the owning shard, before forking
    assignment = router.ring.partition(CLIENT_IDS)
    per_stream = BATCHES_PER_PRODUCER * BATCH_SIZE
    best = float("inf")
    for _ in range(REPEATS):
        processes = [
            FORK.Process(target=_producer, args=(router, client_id), daemon=True)
            for client_id in CLIENT_IDS
        ]
        began = time.perf_counter()
        for process in processes:
            process.start()
        # Every client has its own ring, deep enough for its whole stream, so
        # draining the shards one after another never blocks a producer.
        per_client = Counter()
        for shard, transport in enumerate(router.shards):
            per_client += drain_samples(transport, len(assignment[shard]) * per_stream)
        elapsed = time.perf_counter() - began
        for process in processes:
            process.join(10)
        assert per_client == dict.fromkeys(CLIENT_IDS, per_stream)
        best = min(best, elapsed)
    return MESSAGES_TOTAL / best


def _stress(num_shards: int) -> float:
    """Run the forked-client stress study at ``num_shards`` shards."""
    router = _build_router(num_shards)
    try:
        rate = _pump(router)
        # Exact delivery, shard by shard: every client's whole stream landed
        # on the shard the ring owns it to, nothing dropped, nothing torn.
        assignment = router.ring.partition(CLIENT_IDS)
        per_stream = REPEATS * BATCHES_PER_PRODUCER * BATCH_SIZE
        for shard, transport in enumerate(router.shards):
            expected = len(assignment[shard]) * per_stream
            assert transport.stats.messages_routed == expected, (shard, num_shards)
        stats = router.stats
        assert stats.messages_routed == REPEATS * MESSAGES_TOTAL
        assert stats.dropped_messages == 0
        assert stats.torn_batches == 0
    finally:
        router.shutdown()
    return rate


def test_sharded_scale_out():
    measured = {num_shards: _stress(num_shards) for num_shards in (1, 2, 4)}
    print("\n[sharding] aggregate drain, one process: " + ", ".join(
        f"{num_shards} shard(s) {rate:,.0f} msg/s" for num_shards, rate in measured.items()
    ))
