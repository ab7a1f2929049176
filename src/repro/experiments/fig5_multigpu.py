"""Figure 5 / Table 1: multi-GPU scaling of the buffers.

Training is repeated for 1, 2 and 4 server ranks ("GPUs").  The x-axis of
Figure 5 is the number of simulation time steps seen (n_s = n_b * b * n_GPU);
Table 1 summarises minimum validation MSE and mean throughput.  The paper's
findings: only the Reservoir scales its throughput with the GPU count, and it
consistently reaches the lowest validation loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.common import (
    ExperimentScale,
    build_case,
    build_validation,
    default_scale,
    run_online_with_buffer,
)

BUFFER_KINDS = ("fifo", "firo", "reservoir")


@dataclass
class ScalingCurve:
    """Best validation loss and throughput of one (buffer, gpu count) setting."""

    buffer_kind: str
    num_gpus: int
    best_val_loss: float
    mean_throughput: float
    total_batches: int


@dataclass
class Fig5Result:
    """All scaling curves, keyed by (buffer, num_gpus)."""

    curves: Dict[Tuple[str, int], ScalingCurve] = field(default_factory=dict)

    def throughput(self, buffer_kind: str, num_gpus: int) -> float:
        return self.curves[(buffer_kind, num_gpus)].mean_throughput

    def throughput_scaling(self, buffer_kind: str, gpu_counts: Sequence[int] = (1, 4)) -> float:
        """Throughput ratio between the largest and smallest GPU counts."""
        low, high = min(gpu_counts), max(gpu_counts)
        base = self.throughput(buffer_kind, low)
        if base <= 0:
            return float("nan")
        return self.throughput(buffer_kind, high) / base

    def best_val(self, buffer_kind: str, num_gpus: int) -> float:
        return self.curves[(buffer_kind, num_gpus)].best_val_loss

    def summary_rows(self) -> list[dict]:
        rows = []
        by_gpus = sorted(self.curves.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        for (buffer_kind, num_gpus), curve in by_gpus:
            rows.append(
                {
                    "buffer": buffer_kind,
                    "gpus": num_gpus,
                    "best_val_mse": curve.best_val_loss,
                    "mean_throughput": curve.mean_throughput,
                    "batches": curve.total_batches,
                }
            )
        return rows


def run_fig5_multigpu(
    scale: Optional[ExperimentScale] = None,
    gpu_counts: Sequence[int] = (1, 2, 4),
    buffer_kinds: Sequence[str] = BUFFER_KINDS,
) -> Fig5Result:
    """Run every (buffer, gpu count) combination on the same ensemble design."""
    scale = scale or default_scale()
    case = build_case(scale)
    validation = build_validation(case, scale)
    outcome = Fig5Result()
    for num_gpus in gpu_counts:
        for buffer_kind in buffer_kinds:
            run_case = build_case(scale)
            result = run_online_with_buffer(
                buffer_kind, scale=scale, num_ranks=num_gpus, case=run_case, validation=validation
            )
            losses = result.metrics.losses
            outcome.curves[(buffer_kind, num_gpus)] = ScalingCurve(
                buffer_kind=buffer_kind,
                num_gpus=num_gpus,
                best_val_loss=losses.best_validation_loss,
                mean_throughput=result.total_throughput,
                total_batches=result.total_batches,
            )
    return outcome
