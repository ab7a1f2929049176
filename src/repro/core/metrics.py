"""Metrics recorded during training: throughput, losses, buffer population.

The paper's Figure 2 plots the training throughput (samples/second processed
by the GPU, computed over 10 successive batches every 10 batches) together
with the buffer population; Figures 4-6 plot training and validation losses.
These classes record exactly those series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class ThroughputMeter:
    """Sliding-window throughput of the training loop.

    Call :meth:`record_batch` after each trained batch; every ``window``
    batches the meter computes the samples/second achieved over the window and
    appends it to the series (mirroring the paper's measurement protocol).
    """

    window: int = 10
    clock: Optional[object] = None
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    _window_start: Optional[float] = None
    _batches_in_window: int = 0
    _samples_in_window: int = 0
    total_samples: int = 0
    total_batches: int = 0
    start_time: Optional[float] = None
    end_time: Optional[float] = None

    def _now(self) -> float:
        if self.clock is not None:
            return self.clock.now()  # type: ignore[attr-defined]
        return time.monotonic()

    def start(self) -> None:
        """Open the measurement clock before the first batch is trained.

        Called by the training loop once the first batch has been *drawn*
        (data is available) but before it is trained, so the first window
        spans ``window`` full batch intervals without including the initial
        buffer threshold-fill wait.  Without it, the clock can only start at
        the *completion* of the first batch, and the first reported value
        covers ``window`` batches over ``window - 1`` intervals (~1/window
        overestimate).  Idempotent: later calls are no-ops.
        """
        if self.start_time is not None and self._window_start is not None:
            return
        now = self._now()
        if self.start_time is None:
            self.start_time = now
        if self._window_start is None:
            self._window_start = now

    def record_batch(self, batch_size: int) -> Optional[float]:
        """Record one trained batch; returns the throughput if a window closed."""
        now = self._now()
        if self.start_time is None:
            self.start_time = now
        if self._window_start is None:
            # start() was not called: fall back to opening the window here
            # (first-window bias documented in start()).
            self._window_start = self.start_time
        self._batches_in_window += 1
        self._samples_in_window += int(batch_size)
        self.total_batches += 1
        self.total_samples += int(batch_size)
        self.end_time = now
        if self._batches_in_window >= self.window:
            elapsed = max(now - self._window_start, 1e-9)
            throughput = self._samples_in_window / elapsed
            self.times.append(now)
            self.values.append(throughput)
            self._window_start = now
            self._batches_in_window = 0
            self._samples_in_window = 0
            return throughput
        return None

    def mean_throughput(self) -> float:
        """Overall mean throughput (total samples / total wall time)."""
        if self.start_time is None or self.end_time is None or self.end_time <= self.start_time:
            return 0.0
        return self.total_samples / (self.end_time - self.start_time)

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, samples/sec) arrays of the windowed measurements."""
        return np.asarray(self.times), np.asarray(self.values)


@dataclass
class LossHistory:
    """Training and validation loss curves, in the order they were recorded."""

    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)

    def record_train(self, loss: float) -> None:
        self.train_losses.append(float(loss))

    def record_validation(self, loss: float) -> None:
        self.val_losses.append(float(loss))

    @property
    def best_validation_loss(self) -> float:
        """Minimum validation loss reached ("Min. MSE" column of Table 1)."""
        return float(np.min(self.val_losses)) if self.val_losses else float("nan")

    @property
    def final_validation_loss(self) -> float:
        return float(self.val_losses[-1]) if self.val_losses else float("nan")

    @property
    def final_training_loss(self) -> float:
        return float(self.train_losses[-1]) if self.train_losses else float("nan")


@dataclass
class BufferPopulationSeries:
    """Time series of a buffer's population."""

    times: List[float] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)

    def record(self, timestamp: float, size: int) -> None:
        self.times.append(float(timestamp))
        self.sizes.append(int(size))

    def max_population(self) -> int:
        return max(self.sizes, default=0)


@dataclass
class TrainingMetrics:
    """Everything recorded by one training worker (one server rank)."""

    rank: int = 0
    throughput: ThroughputMeter = field(default_factory=ThroughputMeter)
    losses: LossHistory = field(default_factory=LossHistory)
    buffer_population: BufferPopulationSeries = field(default_factory=BufferPopulationSeries)
    occurrence_histogram: Dict[int, int] = field(default_factory=dict)
    batches_trained: int = 0
    samples_trained: int = 0
    wall_time: float = 0.0


def throughput_from_summary(summary: Dict[str, float]) -> float:
    """Study-level throughput of a :func:`merge_worker_metrics` summary (0 if empty)."""
    return float(summary.get("total_throughput", 0.0))


def _best_loss(values: List[float]) -> float:
    """The lowest non-NaN value, or the first value if all are NaN."""
    finite = [v for v in values if not np.isnan(v)]
    return float(min(finite)) if finite else float(values[0])


def merge_worker_metrics(per_rank: List[TrainingMetrics],
                         num_shards: int = 1) -> Dict[str, float]:
    """Aggregate per-rank metrics into study-level numbers.

    Throughput sums across ranks (each rank feeds its own GPU), so it is
    reported as ``total_throughput``.  Losses come from rank 0 (replicas are
    identical after all-reduce); batch counts sum.

    With ``num_shards > 1`` the list is shard-major (all ranks of shard 0,
    then shard 1, ...): the totals still sum over every rank of every
    shard, while the validation numbers come from the best shard's rank 0 —
    shards train independent replicas on hash-partitioned client streams,
    so the study reports the best surrogate the cluster produced (matching
    the model :class:`repro.server.sharding.ShardManager` returns).
    """
    if not per_rank:
        return {}
    num_shards = max(1, int(num_shards))
    ranks_per_shard = max(1, len(per_rank) // num_shards)
    lead_ranks = per_rank[::ranks_per_shard][:num_shards]
    total_throughput = float(sum(m.throughput.mean_throughput() for m in per_rank))
    return {
        "num_ranks": float(len(per_rank)),
        "num_shards": float(num_shards),
        "total_batches": float(sum(m.batches_trained for m in per_rank)),
        "total_samples": float(sum(m.samples_trained for m in per_rank)),
        "total_throughput": total_throughput,
        "best_val_mse": _best_loss([m.losses.best_validation_loss for m in lead_ranks]),
        "final_val_mse": _best_loss([m.losses.final_validation_loss for m in lead_ranks]),
        "wall_time": max(m.wall_time for m in per_rank),
    }
