"""Result containers returned by the study drivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.core.metrics import TrainingMetrics, throughput_from_summary

if TYPE_CHECKING:  # annotation-only: a runtime import would close the
    # core ⇄ server import cycle (server.serving is importable on its own).
    from repro.launcher.launcher import LauncherReport
    from repro.nn.module import Module
    from repro.server.server import ServerResult


@dataclass
class OnlineStudyResult:
    """Everything produced by one online study run."""

    server: ServerResult
    launcher: LauncherReport
    total_elapsed: float
    unique_samples: int
    dataset_bytes: int

    @property
    def metrics(self) -> TrainingMetrics:
        return self.server.metrics

    @property
    def best_validation_loss(self) -> float:
        return self.server.best_validation_loss

    @property
    def total_throughput(self) -> float:
        """Aggregate samples/second processed across all server ranks."""
        return self.server.total_throughput

    @property
    def total_batches(self) -> int:
        return int(self.server.summary.get("total_batches", 0))

    @property
    def dataset_gigabytes(self) -> float:
        return self.dataset_bytes / 1e9

    def table_row(self, label: str = "online") -> Dict[str, object]:
        """One row of the paper-style comparison tables."""
        return {
            "setting": label,
            "total_hours": self.total_elapsed / 3600.0,
            "generation_hours": 0.0,  # generation overlaps training online
            "dataset_gb": self.dataset_gigabytes,
            "unique_samples": self.unique_samples,
            "min_mse": self.best_validation_loss,
            "throughput": self.total_throughput,
            "batches": self.total_batches,
        }


@dataclass
class OfflineStudyResult:
    """Everything produced by one offline baseline run."""

    model: Module
    per_rank_metrics: List[TrainingMetrics]
    summary: Dict[str, float]
    generation_elapsed: float
    training_elapsed: float
    unique_samples: int
    dataset_bytes: int
    store_dir: Optional[str] = None

    @property
    def metrics(self) -> TrainingMetrics:
        """Rank-0 metrics (losses are identical across ranks after all-reduce)."""
        return self.per_rank_metrics[0]

    @property
    def best_validation_loss(self) -> float:
        return self.metrics.losses.best_validation_loss

    @property
    def total_throughput(self) -> float:
        """Aggregate samples/second processed across all ranks."""
        return throughput_from_summary(self.summary)

    @property
    def total_batches(self) -> int:
        return int(self.summary.get("total_batches", 0))

    @property
    def total_elapsed(self) -> float:
        return self.generation_elapsed + self.training_elapsed

    @property
    def dataset_gigabytes(self) -> float:
        return self.dataset_bytes / 1e9

    def table_row(self, label: str = "offline") -> Dict[str, object]:
        return {
            "setting": label,
            "total_hours": self.total_elapsed / 3600.0,
            "generation_hours": self.generation_elapsed / 3600.0,
            "dataset_gb": self.dataset_gigabytes,
            "unique_samples": self.unique_samples,
            "min_mse": self.best_validation_loss,
            "throughput": self.total_throughput,
            "batches": self.total_batches,
        }


def improvement_percent(baseline_mse: float, improved_mse: float) -> float:
    """Relative improvement of the validation MSE, as the paper's "+47 %" figure."""
    if not np.isfinite(baseline_mse) or baseline_mse <= 0:
        return float("nan")
    return 100.0 * (baseline_mse - improved_mse) / baseline_mse
