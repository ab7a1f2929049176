"""Table 1: training and throughput performance per buffer and GPU count.

The paper's Table 1 rows are (buffer, #GPUs) combinations of the 250-simulation
study, with columns: generation hours (offline only — online generation
overlaps training), total hours, minimum validation MSE and mean throughput in
samples/second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.common import (
    ExperimentScale,
    build_case,
    build_validation,
    default_scale,
    run_offline_baseline,
    run_online_with_buffer,
)

SETTINGS = ("offline", "fifo", "firo", "reservoir")


@dataclass
class Table1Row:
    """One row of Table 1."""

    buffer: str
    gpus: int
    generation_hours: float
    total_hours: float
    min_mse: float
    mean_throughput: float
    batches: int

    def as_dict(self) -> dict:
        return {
            "buffer": self.buffer,
            "gpus": self.gpus,
            "generation_hours": self.generation_hours,
            "total_hours": self.total_hours,
            "min_mse": self.min_mse,
            "mean_throughput": self.mean_throughput,
            "batches": self.batches,
        }


def run_table1(
    scale: Optional[ExperimentScale] = None,
    gpu_counts: Sequence[int] = (1, 2, 4),
    settings: Sequence[str] = SETTINGS,
) -> List[Table1Row]:
    """Run every (setting, gpu count) cell of Table 1 at the scaled configuration."""
    scale = scale or default_scale()
    case = build_case(scale)
    validation = build_validation(case, scale)
    rows: List[Table1Row] = []
    for num_gpus in gpu_counts:
        for setting in settings:
            if setting == "offline":
                result = run_offline_baseline(
                    scale=scale, num_epochs=1, num_ranks=num_gpus,
                    case=build_case(scale), validation=validation,
                )
                rows.append(
                    Table1Row(
                        buffer="offline",
                        gpus=num_gpus,
                        generation_hours=result.generation_elapsed / 3600.0,
                        total_hours=result.total_elapsed / 3600.0,
                        min_mse=result.best_validation_loss,
                        mean_throughput=result.total_throughput,
                        batches=result.total_batches,
                    )
                )
            else:
                result = run_online_with_buffer(
                    setting, scale=scale, num_ranks=num_gpus,
                    case=build_case(scale), validation=validation,
                )
                rows.append(
                    Table1Row(
                        buffer=setting,
                        gpus=num_gpus,
                        generation_hours=0.0,
                        total_hours=result.total_elapsed / 3600.0,
                        min_mse=result.best_validation_loss,
                        mean_throughput=result.total_throughput,
                        batches=result.total_batches,
                    )
                )
    return rows
