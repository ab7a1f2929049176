"""Benchmark: the columnar batched buffer path vs the per-sample path.

The training buffer's ``get``/``put`` path is the system's hot path: it is
what lets online training keep the GPU saturated while clients stream data in
(paper Section 3.2).  ``get_batch_columns`` — what the training loop actually
calls — draws the whole batch under a single lock acquisition with one
vectorized RNG call per chunk and gathers it straight out of the column
store as two matrices; the reference ``get_batch_per_sample`` path acquires
the lock and calls the scalar RNG once per sample.  This benchmark asserts
the batched path is at least 3x faster at the paper's batch size of 10 on
the two randomized policies (FIRO and Reservoir), and that bulk insertion of
a :class:`ColumnBatch` chunk (what the columnar transport drain delivers)
beats per-sample ``put``.
"""

import time

import numpy as np
import pytest

from repro.buffers import FIFOBuffer, FIROBuffer, ReservoirBuffer
from repro.buffers.base import SampleRecord
from repro.buffers.columns import ColumnBatch
from repro.utils.constants import bench_min_speedup, record_bench_result

BATCH_SIZE = 10
NUM_BATCHES = 200
CAPACITY = 4_000
REPEATS = 7
# Required batched-vs-per-sample speedup on FIRO/Reservoir.  The default (3x,
# measured ~4x locally) is the acceptance bar; CI on shared runners sets
# REPRO_BENCH_MIN_SPEEDUP lower because wall-clock ratios are noisy there.
MIN_SPEEDUP = bench_min_speedup()
# The FIFO (no RNG) and put_many floors scale with the same noise margin.
NOISE_SCALE = MIN_SPEEDUP / 3.0

RECORDS = [
    SampleRecord(
        inputs=np.zeros(6, dtype=np.float32),
        target=np.zeros(16, dtype=np.float32),
        source_id=0,
        time_step=index,
    )
    for index in range(CAPACITY)
]
# The same samples as one columnar chunk — the shape in which the transport
# drain hands them to the aggregator (built outside every timed region).
CHUNK = ColumnBatch.from_records(RECORDS)


def make_buffer(kind):
    cls = {"fifo": FIFOBuffer, "firo": FIROBuffer, "reservoir": ReservoirBuffer}[kind]
    if kind == "fifo":
        buffer = cls(capacity=CAPACITY)
    else:
        buffer = cls(capacity=CAPACITY, threshold=0, seed=1)
    buffer.put_many(RECORDS)
    return buffer


def time_extraction(kind, batched):
    """Seconds to draw NUM_BATCHES batches of BATCH_SIZE (best of REPEATS)."""
    best = float("inf")
    for _ in range(REPEATS):
        buffer = make_buffer(kind)
        extract = buffer.get_batch_columns if batched else buffer.get_batch_per_sample
        began = time.perf_counter()
        for _ in range(NUM_BATCHES):
            batch = extract(BATCH_SIZE, timeout=5.0)
            assert len(batch) == BATCH_SIZE
        best = min(best, time.perf_counter() - began)
    return best


@pytest.mark.parametrize("kind", ["firo", "reservoir"])
def test_batched_extraction_at_least_3x_faster(kind):
    per_sample = time_extraction(kind, batched=False)
    batched = time_extraction(kind, batched=True)
    speedup = per_sample / batched
    per_batch = batched / NUM_BATCHES * 1e6
    print(
        f"\n[{kind}] per-sample {per_sample / NUM_BATCHES * 1e6:.1f} us/batch, "
        f"batched {per_batch:.1f} us/batch, speedup {speedup:.2f}x"
    )
    record_bench_result(f"buffer.batched_get_{kind}", speedup, floor=MIN_SPEEDUP,
                        batch_size=BATCH_SIZE)
    assert speedup >= MIN_SPEEDUP, (
        f"batched get_batch only {speedup:.2f}x faster than per-sample on {kind}"
    )


def test_batched_extraction_faster_on_fifo():
    """FIFO has no RNG, so the win is smaller but must not regress."""
    per_sample = time_extraction("fifo", batched=False)
    batched = time_extraction("fifo", batched=True)
    speedup = per_sample / batched
    print(f"\n[fifo] speedup {speedup:.2f}x")
    assert speedup >= 1.5 * NOISE_SCALE


@pytest.mark.parametrize("kind", ["fifo", "firo", "reservoir"])
def test_put_many_faster_than_per_sample_put(kind):
    def time_put(bulk):
        best = float("inf")
        # More repeats than the extraction benches: the measured ratio is
        # ~60-130x, so scheduler noise on either side moves it by tens of
        # percent and the best-of estimate needs more draws to settle.
        for _ in range(2 * REPEATS):
            cls = {"fifo": FIFOBuffer, "firo": FIROBuffer, "reservoir": ReservoirBuffer}[kind]
            buffer = cls(capacity=CAPACITY) if kind == "fifo" else cls(
                capacity=CAPACITY, threshold=0, seed=1)
            began = time.perf_counter()
            if bulk:
                inserted = buffer.put_many(CHUNK)
                assert inserted == CAPACITY
            else:
                for record in RECORDS:
                    buffer.put(record)
            best = min(best, time.perf_counter() - began)
        return best

    per_sample = time_put(bulk=False)
    bulk = time_put(bulk=True)
    speedup = per_sample / bulk
    print(f"\n[{kind}] put_many speedup {speedup:.2f}x")
    record_bench_result(f"buffer.put_many_{kind}", speedup, floor=2.0 * NOISE_SCALE)
    assert speedup >= 2.0 * NOISE_SCALE


def test_drain_draw_costs_at_most_twice_its_gather():
    """Bookkeeping <= data movement, at the ``ingest_bound.shm`` shape.

    A drain-mode ``get_batch_columns(100)`` from a 160 000 x 256 float32
    Reservoir is one distinct-position draw, one boundary move and the gather
    of the 100 rows; it must cost at most twice the bare ``ColumnStore.gather``
    of 100 random rows of the same store.  The two are timed alternately on
    the same box, so its speed cancels (medians of 400 calls each).
    """
    capacity, width, batch = 160_000, 256, 100
    buffer = ReservoirBuffer(capacity=capacity, threshold=capacity, seed=3)
    rows = 8_000
    block = ColumnBatch(
        np.zeros((rows, 6)),
        np.zeros((rows, width), dtype=np.float32),
        np.zeros(rows, dtype=np.int64),
        np.arange(rows, dtype=np.int64),
    )
    for _ in range(capacity // rows):
        assert buffer.put_many(block, timeout=5.0) == rows
    buffer.signal_reception_over()
    rng = np.random.default_rng(0)
    draw_ns, gather_ns = [], []
    for _ in range(400):
        random_rows = rng.integers(0, capacity, size=batch)
        began = time.perf_counter_ns()
        gathered = buffer._store.gather(random_rows)
        gather_ns.append(time.perf_counter_ns() - began)
        began = time.perf_counter_ns()
        drawn = buffer.get_batch_columns(batch, timeout=5.0)
        draw_ns.append(time.perf_counter_ns() - began)
        assert len(gathered) == len(drawn) == batch
    draw, gather = np.median(draw_ns) / 1e3, np.median(gather_ns) / 1e3
    print(f"\n[reservoir drain] get_batch_columns {draw:.1f} us, bare gather {gather:.1f} us, "
          f"ratio {draw / gather:.2f}")
    assert draw <= 2.0 * gather
