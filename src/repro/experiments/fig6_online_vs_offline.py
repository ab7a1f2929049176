"""Figure 6 / headline claim: online (large ensemble) vs multi-epoch offline.

The offline baseline trains for many epochs on a small fixed dataset (and
overfits: its validation loss plateaus while the training loss keeps going
down); online training streams a much larger ensemble through the Reservoir
once and reaches a lower validation loss — the paper reports a 47 %
improvement at 4 GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.results import improvement_percent
from repro.experiments.common import (
    ExperimentScale,
    build_case,
    build_validation,
    default_scale,
    run_offline_baseline,
    run_online_with_buffer,
)


@dataclass
class Fig6Result:
    """Headline numbers of the online-vs-offline comparison."""

    offline_best_val: float
    online_best_val: float
    offline_epochs: int
    online_unique_samples: int
    offline_unique_samples: int
    improvement_pct: float
    offline_overfit_gap: float
    online_overfit_gap: float


def run_fig6_online_vs_offline(
    scale: Optional[ExperimentScale] = None,
    offline_epochs: int = 8,
    online_simulation_factor: int = 4,
    num_ranks: int = 1,
) -> Fig6Result:
    """Multi-epoch offline on a small dataset vs online Reservoir on a larger ensemble.

    ``online_simulation_factor`` scales how many more unique simulations the
    online run sees (the paper uses 80x: 20 000 vs 250); the scaled default
    keeps the same direction while staying single-node friendly.
    """
    scale = scale or default_scale()
    case = build_case(scale)
    validation = build_validation(case, scale)

    offline = run_offline_baseline(
        scale=scale,
        num_epochs=offline_epochs,
        num_ranks=num_ranks,
        case=build_case(scale),
        validation=validation,
    )

    online_sims = scale.num_simulations * online_simulation_factor
    online = run_online_with_buffer(
        "reservoir",
        scale=scale,
        num_ranks=num_ranks,
        case=build_case(scale),
        validation=validation,
        use_series=False,
        num_simulations=online_sims,
    )

    off_losses = offline.metrics.losses
    on_losses = online.metrics.losses
    offline_gap = (
        float(off_losses.val_losses[-1] - off_losses.train_losses[-1])
        if off_losses.val_losses else float("nan")
    )
    online_gap = (
        float(on_losses.val_losses[-1] - on_losses.train_losses[-1])
        if on_losses.val_losses else float("nan")
    )
    return Fig6Result(
        offline_best_val=offline.best_validation_loss,
        online_best_val=online.best_validation_loss,
        offline_epochs=offline_epochs,
        online_unique_samples=online.unique_samples,
        offline_unique_samples=offline.unique_samples,
        improvement_pct=improvement_percent(
            offline.best_validation_loss, online.best_validation_loss
        ),
        offline_overfit_gap=offline_gap,
        online_overfit_gap=online_gap,
    )
