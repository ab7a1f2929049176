"""Figure 3: histogram of sample occurrences in Reservoir batches.

The paper's Figure 3 counts, for Reservoir runs on 1, 2 and 4 GPUs, how many
times each simulation time step was selected in a training batch.  Most
samples appear a couple of times, rarely more than ~8, and the repetition rate
grows with the number of GPUs (each rank's buffer receives fewer fresh samples
while consuming more).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.experiments.common import (
    ExperimentScale,
    build_case,
    default_scale,
    run_online_with_buffer,
)


@dataclass
class Fig3Result:
    """Occurrence histograms per GPU count."""

    histograms: Dict[int, Dict[int, int]] = field(default_factory=dict)
    mean_occurrences: Dict[int, float] = field(default_factory=dict)
    max_occurrences: Dict[int, int] = field(default_factory=dict)

    def summary_rows(self) -> list[dict]:
        return [
            {
                "gpus": gpus,
                "mean_occurrences": self.mean_occurrences[gpus],
                "max_occurrences": self.max_occurrences[gpus],
            }
            for gpus in sorted(self.histograms)
        ]


def _merge_histograms(per_rank_histograms: Sequence[Dict[int, int]]) -> Dict[int, int]:
    merged: Dict[int, int] = {}
    for histogram in per_rank_histograms:
        for occurrences, count in histogram.items():
            merged[occurrences] = merged.get(occurrences, 0) + count
    return dict(sorted(merged.items()))


def run_fig3_occurrences(
    scale: Optional[ExperimentScale] = None,
    gpu_counts: Sequence[int] = (1, 2, 4),
) -> Fig3Result:
    """Run the Reservoir study at several GPU counts and collect occurrence stats."""
    scale = scale or default_scale()
    outcome = Fig3Result()
    for num_gpus in gpu_counts:
        case = build_case(scale)
        result = run_online_with_buffer(
            "reservoir", scale=scale, num_ranks=num_gpus, case=case, use_series=True
        )
        histogram = _merge_histograms(
            [metrics.occurrence_histogram for metrics in result.server.per_rank_metrics]
        )
        outcome.histograms[num_gpus] = histogram
        counts = np.array([occ for occ, n in histogram.items() for _ in range(n)])
        outcome.mean_occurrences[num_gpus] = float(counts.mean()) if counts.size else 0.0
        outcome.max_occurrences[num_gpus] = int(counts.max()) if counts.size else 0
    return outcome
