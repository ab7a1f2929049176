"""Ablation benchmarks of the Reservoir design choices (see DESIGN.md §6).

* eviction-on-write (Reservoir) vs eviction-on-read (FIRO) under a production
  stall — isolates the mechanism behind the Figure 2 gap;
* buffer capacity / threshold sensitivity.

These are pure-buffer micro-benchmarks (no solver, no network training) so the
numbers reflect the data structures themselves.  Samples are put and drawn one
row at a time, as a per-time-step producer and consumer would.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.buffers import FIROBuffer, ReservoirBuffer
from repro.buffers.columns import ColumnBatch
from repro.experiments.reporting import format_rows


def _sample(index: int) -> ColumnBatch:
    """Sample ``index`` as a one-row batch."""
    return ColumnBatch(
        np.array([[float(index)]]),
        np.zeros((1, 16), dtype=np.float32),
        np.array([index // 100]),
        np.array([index % 100]),
    )


def _stall_scenario(buffer, produce_first: int, stall_reads: int, batch_size: int = 10):
    """Produce a burst, then stop production and count batches still deliverable."""
    for index in range(produce_first):
        if not buffer.put_many(_sample(index), timeout=0):
            break
    delivered = 0
    for _ in range(stall_reads):
        drawn = 0
        for _ in range(batch_size):
            try:
                drawn += len(buffer.get_batch_columns(1, timeout=0.001))
            except TimeoutError:
                break
        if drawn == batch_size:
            delivered += 1
    return delivered


def test_ablation_eviction_policy_under_stall(benchmark):
    """Reservoir keeps delivering batches during a production stall; FIRO stops."""

    def run():
        reservoir = ReservoirBuffer(capacity=200, threshold=50, seed=0)
        firo = FIROBuffer(capacity=200, threshold=50, seed=0)
        return {
            "reservoir": _stall_scenario(reservoir, produce_first=150, stall_reads=100),
            "firo": _stall_scenario(firo, produce_first=150, stall_reads=100),
        }

    delivered = run_once(benchmark, run)
    print()
    print(format_rows(
        [{"buffer": kind, "full_batches_during_stall": count} for kind, count in delivered.items()],
        title="Ablation — batches deliverable during a production stall",
    ))
    assert delivered["reservoir"] == 100      # GPU never starves
    assert delivered["firo"] < delivered["reservoir"]


def test_ablation_threshold_sensitivity(benchmark):
    """A higher threshold delays the first batch but does not limit steady state."""

    def run():
        results = []
        for threshold in (0, 50, 150):
            buffer = ReservoirBuffer(capacity=200, threshold=threshold, seed=0)
            produced = 0
            first_batch_at = None
            delivered = 0
            for index in range(400):
                buffer.put_many(_sample(index), timeout=0)
                produced += 1
                try:
                    buffer.get_batch_columns(10, timeout=0)
                except TimeoutError:  # the population is not above the threshold yet
                    continue
                delivered += 1
                if first_batch_at is None:
                    first_batch_at = produced
            results.append({
                "threshold": threshold,
                "first_batch_after_samples": first_batch_at,
                "batches_delivered": delivered,
            })
        return results

    rows = run_once(benchmark, run)
    print()
    print(format_rows(rows, title="Ablation — Reservoir threshold sensitivity"))
    first = {row["threshold"]: row["first_batch_after_samples"] for row in rows}
    assert first[0] <= first[50] <= first[150]
    delivered = {row["threshold"]: row["batches_delivered"] for row in rows}
    assert delivered[150] > 0
