"""Figure 4: training and validation losses per buffer policy vs offline (1 epoch).

All settings see the same unique samples; they differ only in how those
samples are ordered into batches.  FIFO overfits (low training loss, high
validation loss), FIRO mitigates the bias, the Reservoir matches the
uniformly-shuffled one-epoch offline reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.results import OfflineStudyResult, OnlineStudyResult
from repro.experiments.common import (
    ExperimentScale,
    build_case,
    build_validation,
    default_scale,
    run_offline_baseline,
    run_online_with_buffer,
)

SETTINGS = ("fifo", "firo", "reservoir", "offline")


@dataclass
class LossCurves:
    """Train/validation loss curves of one setting."""

    setting: str
    train_losses: np.ndarray
    val_losses: np.ndarray
    best_val_loss: float
    final_train_loss: float
    total_batches: int
    wall_time: float


@dataclass
class Fig4Result:
    """All curves of Figure 4 plus the Table-1-style summary."""

    curves: Dict[str, LossCurves] = field(default_factory=dict)

    def best_val(self, setting: str) -> float:
        return self.curves[setting].best_val_loss

    def generalization_gap(self, setting: str) -> float:
        """Validation minus training loss at end of run (overfitting indicator)."""
        curve = self.curves[setting]
        if not curve.val_losses.size:
            return float("nan")
        return float(curve.val_losses[-1] - curve.train_losses[-1])

    def summary_rows(self) -> list[dict]:
        return [
            {
                "setting": name,
                "best_val_mse": curve.best_val_loss,
                "final_train_loss": curve.final_train_loss,
                "batches": curve.total_batches,
                "wall_time_s": curve.wall_time,
            }
            for name, curve in self.curves.items()
        ]


def _curves_from_online(setting: str, result: OnlineStudyResult) -> LossCurves:
    losses = result.metrics.losses
    return LossCurves(
        setting=setting,
        train_losses=np.asarray(losses.train_losses),
        val_losses=np.asarray(losses.val_losses),
        best_val_loss=losses.best_validation_loss,
        final_train_loss=losses.final_training_loss,
        total_batches=result.total_batches,
        wall_time=result.total_elapsed,
    )


def _curves_from_offline(result: OfflineStudyResult) -> LossCurves:
    losses = result.metrics.losses
    return LossCurves(
        setting="offline",
        train_losses=np.asarray(losses.train_losses),
        val_losses=np.asarray(losses.val_losses),
        best_val_loss=losses.best_validation_loss,
        final_train_loss=losses.final_training_loss,
        total_batches=result.total_batches,
        wall_time=result.total_elapsed,
    )


def run_fig4_quality(
    scale: Optional[ExperimentScale] = None,
    settings: tuple = SETTINGS,
) -> Fig4Result:
    """Train the surrogate under each buffer policy plus the 1-epoch offline baseline."""
    scale = scale or default_scale()
    case = build_case(scale)
    validation = build_validation(case, scale)
    outcome = Fig4Result()
    for setting in settings:
        run_case = build_case(scale)  # identical design for every setting
        if setting == "offline":
            result = run_offline_baseline(
                scale=scale, num_epochs=1, num_ranks=1, case=run_case, validation=validation
            )
            outcome.curves[setting] = _curves_from_offline(result)
        else:
            online = run_online_with_buffer(
                setting, scale=scale, num_ranks=1, case=run_case, validation=validation
            )
            outcome.curves[setting] = _curves_from_online(setting, online)
    return outcome
