"""Benchmark: shared-memory ring vs the ``mp.Queue`` packed-batch channel.

PR 2's multi-process transport moves every hot-path packed batch through a
``multiprocessing.Queue``: pickle of the buffer, a feeder-thread handoff and
two pipe syscalls per batch.  The shm ring carries the *same* packed buffers
with two memcpys and no locks, threads or syscalls.  The asserted number is
that channel round trip at the paper's batch size of 10 — the component the
ring replaces — which must be at least ``MIN_SPEEDUP`` times faster
(measured ~4-5x; the floor leaves room for noisy shared runners).

The end-to-end transport comparison (pack + channel + unpack, forked
producer) is reported as well but asserted only for delivery: ``pack_many``
dominates both backends there, and the queue's feeder thread pipelines its
serialisation off the producer's critical path, so the end-to-end ratio
hovers near 1x on an idle two-core box.  What the ring buys end to end is
robustness (a SIGKILL mid-write can no longer wedge a rank channel) and the
removal of per-queue feeder threads, not single-stream message rate.
"""

import gc
import multiprocessing
import time

from transport_fixture import BATCH_SIZE, BATCHES, NUM_BATCHES, REPEATS

from repro.buffers.columns import ColumnBatch
from repro.parallel.messages import pack_many
from repro.parallel.mp_transport import MultiprocessTransport
from repro.parallel.shm_ring import ShmRing, ShmRingTransport

#: Test processes are forked, like the launcher's clients.
FORK = multiprocessing.get_context("fork")

RING_SLOT_BYTES = 16_384
MIN_SPEEDUP = 1.5

PACKED = [pack_many(batch) for batch in BATCHES]


def time_mp_queue_channel() -> float:
    """Round-trip the packed buffers through one ``mp.Queue`` (the PR 2 path)."""
    best = float("inf")
    for _ in range(REPEATS):
        channel = multiprocessing.Queue(maxsize=NUM_BATCHES + 8)
        began = time.perf_counter()
        for buffer in PACKED:
            channel.put(buffer)
        for _ in PACKED:
            assert channel.get(timeout=5.0) is not None
        best = min(best, time.perf_counter() - began)
        channel.cancel_join_thread()
        channel.close()
    return best


def time_shm_ring_channel() -> float:
    """Round-trip the same buffers through one shm ring."""
    view = memoryview(bytearray(ShmRing.layout_bytes(NUM_BATCHES + 8, RING_SLOT_BYTES)))
    ring = ShmRing(view, NUM_BATCHES + 8, RING_SLOT_BYTES, create=True)
    best = float("inf")
    for _ in range(REPEATS):
        began = time.perf_counter()
        for buffer in PACKED:
            assert ring.try_write(buffer)
        for _ in PACKED:
            assert ring.try_read() is not None
        best = min(best, time.perf_counter() - began)
    return best


def test_ring_channel_at_least_1_5x_mp_queue_packed_path():
    queue_elapsed = time_mp_queue_channel()
    ring_elapsed = time_shm_ring_channel()
    speedup = queue_elapsed / ring_elapsed
    per_batch_queue = queue_elapsed / NUM_BATCHES * 1e6
    per_batch_ring = ring_elapsed / NUM_BATCHES * 1e6
    print(
        f"\n[ring] mp.Queue {per_batch_queue:.2f} us/batch, "
        f"shm ring {per_batch_ring:.2f} us/batch, speedup {speedup:.2f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"shm ring only {speedup:.2f}x faster than the mp.Queue packed-batch path"
    )


def test_shm_transport_end_to_end_forked_producer():
    """Study-shaped end-to-end rate through both backends (informational).

    A forked client pushes every batch while the server thread drains; the
    assertion is delivery accounting only — see the module docstring for why
    the wall-clock ratio is not a floor here.
    """
    messages_total = NUM_BATCHES * BATCH_SIZE

    def producer(transport) -> None:
        for batch in BATCHES:
            transport.push_many(0, batch)

    def pump(transport) -> float:
        # Best-of-5: each rep pays a full fork (3-10 ms of the ~20 ms run on
        # a small box), so the max over a few reps is the stable estimator.
        # Collect before each rep so a generational GC pass triggered by the
        # previous rep's message churn does not land inside the timed window
        # (applied identically to both backends).
        transport.lease_client(0)  # the server leases before forking
        best = float("inf")
        for _ in range(5):
            gc.collect()
            process = FORK.Process(target=producer, args=(transport,), daemon=True)
            began = time.perf_counter()
            process.start()
            drained = 0
            while drained < messages_total:
                # Columnar drain: whole chunks per wire batch, each counting
                # its sample rows against the budget (what the server runs).
                items = transport.poll_batches(0, max_messages=256, timeout=2.0)
                assert items, "transport stalled while draining"
                drained += sum(
                    len(item) if isinstance(item, ColumnBatch) else 1 for item in items
                )
            elapsed = time.perf_counter() - began
            process.join(10)
            best = min(best, elapsed)
        return messages_total / best

    mp_transport = MultiprocessTransport(1, max_queue_size=NUM_BATCHES + 8)
    try:
        queue_rate = pump(mp_transport)
        assert mp_transport.stats.dropped_messages == 0
    finally:
        mp_transport.shutdown()

    shm_transport = ShmRingTransport(1, max_concurrent_clients=1, ring_slots=64,
        ring_slot_bytes=RING_SLOT_BYTES)
    try:
        ring_rate = pump(shm_transport)
        stats = shm_transport.stats
        assert stats.dropped_messages == 0
        assert stats.torn_batches == 0
    finally:
        shm_transport.shutdown()

    ratio = ring_rate / queue_rate
    print(
        f"\n[ring] end-to-end mp {queue_rate:,.0f} msg/s, "
        f"shm {ring_rate:,.0f} msg/s ({ratio:.2f}x)"
    )
