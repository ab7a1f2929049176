"""Benchmark reproducing Table 2: large-scale online vs offline comparison.

Two parts, as described in DESIGN.md:

* a *measured* scaled-down run of both settings with the real framework
  (online sees several times more unique simulations at a comparable wall
  clock, with a higher throughput and a better MSE);
* an *extrapolated* full-scale estimate using the discrete-event performance
  model with the paper's parameters (20 000 simulations, 8 TB, 4 GPUs), which
  reproduces the shape of the published numbers: offline ~38 samples/s and
  ~24 h total vs online ~477 samples/s and ~2 h.
"""

from benchmarks.conftest import run_once
from repro.experiments.reporting import format_rows
from repro.experiments.table2 import extrapolate_table2, run_table2


def test_table2_measured(benchmark, bench_scale):
    result = run_once(
        benchmark,
        run_table2,
        bench_scale,
        offline_epochs=4,
        online_simulation_factor=3,
        num_ranks=2,
        offline_io_delay_per_sample=0.002,
    )

    print()
    print(format_rows(result.rows(), title="Table 2 (measured, scaled down)"))
    print(f"throughput ratio online/offline: {result.throughput_ratio:.1f}x (paper: ~12.5x)")
    print(f"MSE improvement online vs offline: {result.mse_improvement_pct:.1f}% (paper: ~47%)")

    assert result.online.unique_samples > result.offline.unique_samples
    assert result.throughput_ratio > 1.5
    assert result.online.mse <= result.offline.mse * 1.2


def test_table2_extrapolated_full_scale(benchmark):
    extrapolation = run_once(benchmark, extrapolate_table2)

    rows = [
        {
            "setting": "offline (model)",
            "total_hours": extrapolation.offline_total_hours,
            "throughput": extrapolation.offline_throughput,
            "dataset_gb": extrapolation.offline_dataset_gb,
            "cost_eur": extrapolation.offline_cost_euros,
        },
        {
            "setting": "online reservoir (model)",
            "total_hours": extrapolation.online_total_hours,
            "throughput": extrapolation.online_throughput,
            "dataset_gb": extrapolation.online_dataset_gb,
            "cost_eur": extrapolation.online_cost_euros,
        },
    ]
    print()
    print(format_rows(rows, title="Table 2 (extrapolated to the paper's full scale)"))
    cost = extrapolation.offline_8tb_storage_cost_euros
    print(f"8 TB storage cost if done offline: {cost:.0f} EUR (paper: 480 EUR)")

    # Paper-shape assertions: who wins and by roughly what factor.
    assert extrapolation.online_throughput > 3 * extrapolation.offline_throughput
    assert extrapolation.online_total_hours < extrapolation.offline_total_hours
    assert 5.0 < extrapolation.offline_total_hours < 100.0
    assert 0.5 < extrapolation.online_total_hours < 20.0
    assert extrapolation.online_dataset_gb == 8000.0
