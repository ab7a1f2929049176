#!/usr/bin/env python
"""Online streamed training vs the classical offline pipeline (paper Fig. 6 / Table 2).

The offline baseline generates a dataset on disk once and trains on it for
several epochs; the online run streams a larger ensemble through the Reservoir
exactly once.  At equal wall-clock order, online training sees far more unique
data and generalises better — the paper's headline 47 % MSE improvement.

Run with::

    python examples/online_vs_offline.py
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

from repro.core.results import improvement_percent
from repro.experiments.common import (
    build_case,
    build_validation,
    default_scale,
    run_offline_baseline,
    run_online_with_buffer,
)
from repro.experiments.reporting import format_rows


def main() -> None:
    scale = replace(default_scale(), num_simulations=12, num_steps=15,
                    offline_io_delay_per_sample=0.002)
    case = build_case(scale)
    validation = build_validation(case, scale)

    with tempfile.TemporaryDirectory(prefix="repro-offline-") as tmp:
        offline = run_offline_baseline(
            scale=scale,
            num_epochs=6,
            num_ranks=1,
            case=build_case(scale),
            validation=validation,
            store_dir=Path(tmp) / "store",
        )
    online = run_online_with_buffer(
        "reservoir",
        scale=scale,
        num_ranks=1,
        case=build_case(scale),
        validation=validation,
        use_series=False,
        num_simulations=scale.num_simulations * 4,   # online streams 4x more simulations
    )

    rows = [offline.table_row("offline (6 epochs on fixed dataset)"),
            online.table_row("online (Reservoir, 4x more simulations)")]
    print(format_rows(rows, title="Online vs offline (paper Figure 6 / Table 2, scaled down)"))
    improvement = improvement_percent(offline.best_validation_loss, online.best_validation_loss)
    ratio = online.total_throughput / max(offline.total_throughput, 1e-9)
    print(f"\nvalidation-MSE improvement of online over offline: {improvement:.1f}% (paper: 47%)")
    print(f"batch-throughput ratio online/offline: {ratio:.1f}x (paper: ~12.5x)")
    print(f"offline dataset written to disk: {offline.dataset_gigabytes * 1000:.1f} MB "
        f"(the online run stored nothing)")


if __name__ == "__main__":
    main()
