"""Multi-client contention benchmark: many rings vs one contended queue.

The paper's deployment has hundreds of clients streaming concurrently.  On
the ``mp`` backend they all funnel into one ``mp.Queue`` per rank — every
producer's feeder thread serialises on the queue's shared pipe lock — while
the ``shm`` backend gives each concurrent client its own SPSC ring, so
producers never touch a shared lock on the data path.

N forked producers stream disjoint client streams to one server rank
through both backends; the measured number is the end-to-end drain rate
with all producers live.  The ratio is recorded to the benchmark report
(``record_bench_result``) and asserted for *delivery* (every message
arrives, nothing dropped, nothing torn); the wall-clock ratio itself is
informational, because on a small box the single drain thread — not the
producer-side contention — bounds both backends.
"""

import time

from transport_fixture import BATCH_SIZE, drain_samples, make_batch

from repro.launcher.launcher import _fork_mp
from repro.parallel.mp_transport import MultiprocessTransport
from repro.parallel.shm_ring import ShmRingTransport
from repro.utils.constants import record_bench_result

PRODUCERS = 4
BATCHES_PER_PRODUCER = 80
MESSAGES_TOTAL = PRODUCERS * BATCHES_PER_PRODUCER * BATCH_SIZE
RING_SLOT_BYTES = 16_384

STREAMS = {
    client_id: [
        make_batch(index * BATCH_SIZE, client_id=client_id)
        for index in range(BATCHES_PER_PRODUCER)
    ]
    for client_id in range(PRODUCERS)
}


def _producer(transport, client_id):
    for batch in STREAMS[client_id]:
        transport.push_many(0, batch)


def _pump(transport) -> float:
    """Drain rate with all N producers live (best of 3 runs)."""
    for client_id in range(PRODUCERS):
        transport.lease_client(client_id)  # the server leases before forking
    best = float("inf")
    for _ in range(3):
        processes = [
            _fork_mp().Process(target=_producer, args=(transport, client_id), daemon=True)
            for client_id in range(PRODUCERS)
        ]
        began = time.perf_counter()
        for process in processes:
            process.start()
        per_client = drain_samples(transport, MESSAGES_TOTAL)
        elapsed = time.perf_counter() - began
        for process in processes:
            process.join(10)
        # Every producer's whole stream arrived, attributed to its client id.
        assert per_client == dict.fromkeys(range(PRODUCERS), BATCHES_PER_PRODUCER * BATCH_SIZE)
        best = min(best, elapsed)
    return MESSAGES_TOTAL / best


def test_contended_queue_vs_per_client_rings():
    mp_transport = MultiprocessTransport(1, max_queue_size=MESSAGES_TOTAL)
    try:
        queue_rate = _pump(mp_transport)
        assert mp_transport.stats.dropped_messages == 0
        assert mp_transport.stats.messages_routed == 3 * MESSAGES_TOTAL
    finally:
        mp_transport.shutdown()

    shm_transport = ShmRingTransport(
        1,
        max_concurrent_clients=PRODUCERS,
        ring_slots=BATCHES_PER_PRODUCER + 8,
        ring_slot_bytes=RING_SLOT_BYTES,
    )
    try:
        ring_rate = _pump(shm_transport)
        stats = shm_transport.stats
        assert stats.dropped_messages == 0
        assert stats.torn_batches == 0
        assert stats.messages_routed == 3 * MESSAGES_TOTAL
    finally:
        shm_transport.shutdown()

    ratio = ring_rate / queue_rate
    print(
        f"\n[contention] {PRODUCERS} producers: mp.Queue {queue_rate:,.0f} msg/s, "
        f"shm rings {ring_rate:,.0f} msg/s ({ratio:.2f}x)"
    )
    record_bench_result(
        "shm_ring.contention_vs_mp_queue",
        ratio,
        batch_size=BATCH_SIZE,
        producers=PRODUCERS,
        mp_msgs_per_s=round(queue_rate),
        shm_msgs_per_s=round(ring_rate),
    )
