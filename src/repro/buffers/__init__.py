"""Training buffers: FIFO, FIRO and the paper's Reservoir (Algorithm 1).

A training buffer sits between the server's data-aggregator thread (producer)
and its training thread (consumer).  Its job is twofold: de-bias the inherently
ordered data stream so that batches are well-mixed, and decouple the data
production rate from the GPU consumption rate so the GPU never starves.

* :class:`FIFOBuffer` — plain streaming: samples consumed once in arrival order.
* :class:`FIROBuffer` — "first in, random out": random eviction on read, plus a
  minimum-population threshold before batches may be drawn.
* :class:`ReservoirBuffer` — the paper's contribution: seen/unseen bookkeeping,
  eviction of already *seen* samples on write when full, uniform selection with
  replacement across seen+unseen, threshold lifted at end of reception.

Storage is columnar (structure-of-arrays): every buffer backs its samples
with a preallocated :class:`~repro.buffers.columns.ColumnStore` and the hot
path moves :class:`~repro.buffers.columns.ColumnBatch` chunks — see
``docs/data_path.md`` for the layout and ownership rules.
"""

from repro.buffers.base import BufferClosedError, TrainingBuffer
from repro.buffers.columns import ColumnBatch, ColumnStore
from repro.buffers.fifo import FIFOBuffer
from repro.buffers.firo import FIROBuffer
from repro.buffers.reservoir import ReservoirBuffer
from repro.buffers.stats import OccurrenceTracker, expected_residency_time

__all__ = [
    "TrainingBuffer",
    "ColumnBatch",
    "ColumnStore",
    "BufferClosedError",
    "FIFOBuffer",
    "FIROBuffer",
    "ReservoirBuffer",
    "OccurrenceTracker",
    "expected_residency_time",
    "make_buffer",
]


def make_buffer(kind: str, capacity: int, threshold: int = 0, seed: int = 0):
    """Instantiate a buffer by name ("fifo", "firo", "reservoir")."""
    kind = kind.lower()
    if kind == "fifo":
        return FIFOBuffer(capacity=capacity)
    if kind == "firo":
        return FIROBuffer(capacity=capacity, threshold=threshold, seed=seed)
    if kind == "reservoir":
        return ReservoirBuffer(capacity=capacity, threshold=threshold, seed=seed)
    raise KeyError(f"unknown buffer kind {kind!r}; available: fifo, firo, reservoir")
