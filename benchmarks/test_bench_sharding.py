"""Sharded scale-out benchmark: forked-client stress + calibrated scaling.

Two measurements, honestly separated:

1. **Real stress study.**  Eight forked client processes stream disjoint
   batched streams through the real sharded front door (hash ring over shm
   ring transports) at 1, 2 and 4 shards.  Delivery is asserted exactly —
   every message lands on the shard the ring owns it to, nothing dropped,
   nothing torn — and the measured single-shard drain rate calibrates the
   model below.  The raw aggregate rates are recorded as detail; on a small
   box one drain loop bounds all shard counts, so the *measured* wall-clock
   ratio says nothing about scale-out.
2. **Calibrated saturation model.**  The recorded ``sharding.scale_2x`` /
   ``sharding.scale_4x`` numbers come from
   :func:`~repro.server.sharding.estimate_sharded_throughput` over the real
   ring assignment of 256 virtual clients offering ~4.5x one shard's
   measured capacity, capped by the real
   :func:`~repro.server.sharding.place_shards` concurrency on a
   ``jean_zay_like`` GPU partition — each shard serves
   ``min(offered, per_shard_rate)``.  The detail fields label the mode so
   the report never passes a model number off as a wall-clock one.
"""

import time

from transport_fixture import BATCH_SIZE, drain_samples, make_batch

from repro.cluster.resources import jean_zay_like
from repro.launcher.launcher import _fork_mp
from repro.parallel.shm_ring import ShmRingTransport
from repro.server.sharding import (
    HashRing,
    ShardedTransport,
    estimate_sharded_throughput,
    place_shards,
)
from repro.utils.constants import record_bench_result

BATCHES_PER_PRODUCER = 40
REPEATS = 2
RING_SLOT_BYTES = 16_384

#: Producer client ids chosen so the 4-shard ring assigns two to every shard
#: (ids are deterministic: the ring is a pure hash).  The same ids also load
#: both shards of the 2-shard ring.
CLIENT_IDS = (0, 1, 2, 3, 4, 10, 14, 16)
MESSAGES_TOTAL = len(CLIENT_IDS) * BATCHES_PER_PRODUCER * BATCH_SIZE

#: Saturation-model inputs: virtual ensemble size and offered load relative
#: to one shard's measured capacity (the paper regime: the ensemble offers
#: several times what one server can drain).
VIRTUAL_CLIENTS = 256
OVERLOAD_FACTOR = 4.5

STREAMS = {
    client_id: [
        make_batch(index * BATCH_SIZE, client_id=client_id)
        for index in range(BATCHES_PER_PRODUCER)
    ]
    for client_id in CLIENT_IDS
}


def _producer(router, client_id):
    for batch in STREAMS[client_id]:
        router.push_many(0, batch)


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
    best = float("inf")
    for _ in range(REPEATS):
        processes = [
            _fork_mp().Process(target=_producer, args=(router, client_id), daemon=True)
            for client_id in CLIENT_IDS
        ]
        began = time.perf_counter()
        for process in processes:
            process.start()
        per_client = drain_samples(router, MESSAGES_TOTAL)
        elapsed = time.perf_counter() - began
        for process in processes:
            process.join(10)
        assert per_client == dict.fromkeys(CLIENT_IDS, BATCHES_PER_PRODUCER * BATCH_SIZE)
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


def _model_aggregate(num_shards: int, per_shard_rate: float) -> float:
    """Saturation-model aggregate msg/s at ``num_shards`` shards."""
    ring = HashRing(num_shards)
    per_client = OVERLOAD_FACTOR * per_shard_rate / VIRTUAL_CLIENTS
    rates = {client_id: per_client for client_id in range(VIRTUAL_CLIENTS)}
    plan = place_shards(jean_zay_like(gpu_nodes=1), num_shards)
    estimate = estimate_sharded_throughput(
        ring, rates, per_shard_rate, concurrent_shards=plan.concurrent_shards
    )
    return estimate.aggregate


def test_sharded_scale_out():
    measured = {num_shards: _stress(num_shards) for num_shards in (1, 2, 4)}
    per_shard_rate = measured[1]

    aggregate = {
        num_shards: _model_aggregate(num_shards, per_shard_rate)
        for num_shards in (1, 2, 4)
    }
    scale_2x = aggregate[2] / aggregate[1]
    scale_4x = aggregate[4] / aggregate[1]

    print(
        f"\n[sharding] measured 1-shard drain {per_shard_rate:,.0f} msg/s; "
        f"saturated aggregate 2 shards {aggregate[2]:,.0f} msg/s ({scale_2x:.2f}x), "
        f"4 shards {aggregate[4]:,.0f} msg/s ({scale_4x:.2f}x)"
    )

    detail = {
        "mode": "calibrated_saturation_model",
        "per_shard_rate_msgs_per_s": round(per_shard_rate),
        "virtual_clients": VIRTUAL_CLIENTS,
        "overload_factor": OVERLOAD_FACTOR,
        "stress_1shard_msgs_per_s": round(measured[1]),
        "stress_2shard_msgs_per_s": round(measured[2]),
        "stress_4shard_msgs_per_s": round(measured[4]),
    }
    record_bench_result(
        "sharding.scale_2x", scale_2x, floor=1.7,
        aggregate_msgs_per_s=round(aggregate[2]), **detail,
    )
    record_bench_result(
        "sharding.scale_4x", scale_4x, floor=3.0,
        aggregate_msgs_per_s=round(aggregate[4]), **detail,
    )

    assert scale_2x >= 1.7
    assert scale_4x >= 3.0
