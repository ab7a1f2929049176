"""Benchmark: the cost of a batched draw against the data it moves.

The training buffer's ``get_batch_columns`` is the trainer's hot path: it is
what lets online training keep the GPU saturated while clients stream data in
(paper Section 3.2).  It draws the whole batch under a single lock
acquisition with one vectorized RNG call per chunk and gathers it straight
out of the column store as two matrices; the bookkeeping around the gather
must stay cheaper than the gather itself.
"""

import time

import numpy as np

from repro.buffers import ReservoirBuffer
from repro.buffers.columns import ColumnBatch


def test_drain_draw_costs_at_most_twice_its_gather():
    """Bookkeeping <= data movement, at the ``ingest_bound.shm`` shape.

    A drain-mode ``get_batch_columns(100)`` from a 160 000 x 256 float32
    Reservoir takes the tails of its shuffled regions and gathers the 100
    rows; it must cost at most twice the bare ``ColumnStore.gather`` of 100
    random rows of the same store.  The two are timed alternately on
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
