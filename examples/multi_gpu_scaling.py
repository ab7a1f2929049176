#!/usr/bin/env python
"""Data-parallel scaling of the online training server (paper Fig. 5 / Table 1).

Runs the Reservoir and FIFO studies with 1, 2 and 4 server ranks (the paper's
"GPUs") on the same ensemble and reports throughput and validation MSE.  Only
the Reservoir scales its throughput with the rank count because it can repeat
samples when the per-rank share of fresh data shrinks.

Run with::

    python examples/multi_gpu_scaling.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import (
    build_case,
    build_validation,
    default_scale,
    run_online_with_buffer,
)
from repro.experiments.reporting import format_rows


def main() -> None:
    scale = replace(default_scale(), num_simulations=16, series_sizes=(8, 8), num_steps=15)
    case = build_case(scale)
    validation = build_validation(case, scale)

    rows = []
    for num_ranks in (1, 2, 4):
        for buffer_kind in ("fifo", "reservoir"):
            result = run_online_with_buffer(
                buffer_kind,
                scale=scale,
                num_ranks=num_ranks,
                case=build_case(scale),
                validation=validation,
            )
            rows.append(
                {
                    "buffer": buffer_kind,
                    "ranks": num_ranks,
                    "total_throughput_samples_s": result.total_throughput,
                    "total_batches": result.total_batches,
                    "best_val_mse": result.best_validation_loss,
                    "wall_time_s": result.total_elapsed,
                }
            )

    print(format_rows(rows, title="Multi-GPU scaling (paper Figure 5 / Table 1, scaled down)"))
    reservoir = {row["ranks"]: row["total_throughput_samples_s"]
        for row in rows if row["buffer"] == "reservoir"}
    fifo = {row["ranks"]: row["total_throughput_samples_s"]
            for row in rows if row["buffer"] == "fifo"}
    print(f"\nReservoir throughput scaling 1 -> 4 ranks: {reservoir[4] / reservoir[1]:.2f}x")
    print(f"FIFO throughput scaling 1 -> 4 ranks:      {fifo[4] / fifo[1]:.2f}x")
    print("Expected shape: only the Reservoir increases its throughput with more ranks.")


if __name__ == "__main__":
    main()
