"""Figure 2: buffer population and training throughput over time.

The paper's Figure 2 shows, for FIFO, FIRO and Reservoir on a single GPU, the
training throughput (samples/s) and the buffer population as data is produced
by three successive series of clients.  FIFO and FIRO track the production
rate (with drops at the series transitions); the Reservoir stays GPU-bound and
keeps its buffer full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.results import OnlineStudyResult
from repro.experiments.common import (
    ExperimentScale,
    build_case,
    default_scale,
    run_online_with_buffer,
)

BUFFER_KINDS = ("fifo", "firo", "reservoir")


@dataclass
class BufferRunSeries:
    """Throughput/population series of one buffer policy."""

    buffer_kind: str
    throughput_times: np.ndarray
    throughput_values: np.ndarray
    population_times: np.ndarray
    population_values: np.ndarray
    mean_throughput: float
    total_batches: int
    max_population: int


@dataclass
class Fig2Result:
    """All series of Figure 2 plus the headline comparisons."""

    series: Dict[str, BufferRunSeries] = field(default_factory=dict)

    def mean_throughput(self, buffer_kind: str) -> float:
        return self.series[buffer_kind].mean_throughput

    def reservoir_speedup_over_fifo(self) -> float:
        fifo = self.mean_throughput("fifo")
        if fifo <= 0:
            return float("nan")
        return self.mean_throughput("reservoir") / fifo

    def summary_rows(self) -> List[dict]:
        return [
            {
                "buffer": kind,
                "mean_throughput": run.mean_throughput,
                "total_batches": run.total_batches,
                "max_population": run.max_population,
            }
            for kind, run in self.series.items()
        ]


def _series_from_result(buffer_kind: str, result: OnlineStudyResult) -> BufferRunSeries:
    metrics = result.metrics
    times, values = metrics.throughput.series()
    population = metrics.buffer_population
    return BufferRunSeries(
        buffer_kind=buffer_kind,
        throughput_times=times,
        throughput_values=values,
        population_times=np.asarray(population.times),
        population_values=np.asarray(population.sizes),
        mean_throughput=result.total_throughput,
        total_batches=result.total_batches,
        max_population=population.max_population(),
    )


def run_fig2_throughput(
    scale: Optional[ExperimentScale] = None,
    buffer_kinds: tuple = BUFFER_KINDS,
) -> Fig2Result:
    """Run the Figure 2 experiment: one online study per buffer policy.

    Each study uses the same ensemble (same seed, same series submissions) so
    the only variable is the buffer implementation, as in the paper.
    """
    scale = scale or default_scale()
    outcome = Fig2Result()
    for kind in buffer_kinds:
        case = build_case(scale)  # fresh sampler so every run sees the same design
        result = run_online_with_buffer(kind, scale=scale, num_ranks=1, case=case,
                                        validation=None, use_series=True)
        outcome.series[kind] = _series_from_result(kind, result)
    return outcome
