"""Table 2: large-scale online vs offline comparison.

The paper's Table 2 compares, at 4 GPUs:

* offline: 2 000 cores for generation, 100 GB / 25 000 unique samples, 24.5 h
  total, MSE 25.1, 38 samples/s;
* online (Reservoir): 5 120 cores, 8 TB / 2 000 000 unique samples, 1.97 h
  total, MSE 13.2, 477 samples/s — a ~47 % better MSE and ~13x the batch
  throughput.

Two complementary reproductions are provided:

* ``run_table2`` runs a *measured*, scaled-down version of both settings with
  the real framework (the online run sees several times more unique
  simulations than the offline one, at the same wall-clock order);
* ``extrapolate_table2`` uses the discrete-event performance model with the
  paper's full-scale parameters to reproduce the shape of the published
  numbers (hours, samples/s, storage) without the supercomputer.
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
from repro.simulation.costs import ClusterCostModel, IOCostModel, SolverCostModel, TrainingCostModel
from repro.simulation.pipeline import PipelineSimulator, simulate_offline_pipeline


@dataclass
class Table2Row:
    """One row (setting) of Table 2."""

    setting: str
    generation_hours: float
    total_hours: float
    dataset_gb: float
    unique_samples: int
    mse: float
    throughput: float

    def as_dict(self) -> dict:
        return {
            "setting": self.setting,
            "generation_hours": self.generation_hours,
            "total_hours": self.total_hours,
            "dataset_gb": self.dataset_gb,
            "unique_samples": self.unique_samples,
            "mse": self.mse,
            "throughput": self.throughput,
        }


@dataclass
class Table2Result:
    """Measured rows + headline ratios."""

    offline: Table2Row
    online: Table2Row

    @property
    def throughput_ratio(self) -> float:
        if self.offline.throughput <= 0:
            return float("nan")
        return self.online.throughput / self.offline.throughput

    @property
    def mse_improvement_pct(self) -> float:
        return improvement_percent(self.offline.mse, self.online.mse)

    def rows(self) -> list[dict]:
        return [self.offline.as_dict(), self.online.as_dict()]


def run_table2(
    scale: Optional[ExperimentScale] = None,
    offline_epochs: int = 6,
    online_simulation_factor: int = 4,
    num_ranks: int = 2,
    offline_io_delay_per_sample: float = 0.002,
) -> Table2Result:
    """Measured (scaled-down) Table 2: offline multi-epoch vs online Reservoir.

    ``offline_io_delay_per_sample`` injects the per-sample file-read latency
    that dominates the paper's offline baseline; the online path streams
    directly from memory and does not pay it.
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
        io_delay_per_sample=offline_io_delay_per_sample,
    )
    online = run_online_with_buffer(
        "reservoir",
        scale=scale,
        num_ranks=num_ranks,
        case=build_case(scale),
        validation=validation,
        use_series=False,
        num_simulations=scale.num_simulations * online_simulation_factor,
    )

    offline_row = Table2Row(
        setting="offline",
        generation_hours=offline.generation_elapsed / 3600.0,
        total_hours=offline.total_elapsed / 3600.0,
        dataset_gb=offline.dataset_gigabytes,
        unique_samples=offline.unique_samples,
        mse=offline.best_validation_loss,
        throughput=offline.total_throughput,
    )
    online_row = Table2Row(
        setting="online-reservoir",
        generation_hours=0.0,
        total_hours=online.total_elapsed / 3600.0,
        dataset_gb=online.dataset_gigabytes,
        unique_samples=online.unique_samples,
        mse=online.best_validation_loss,
        throughput=online.total_throughput,
    )
    return Table2Result(offline=offline_row, online=online_row)


@dataclass
class Table2Extrapolation:
    """Full-scale estimates produced by the performance model."""

    offline_total_hours: float
    offline_throughput: float
    offline_dataset_gb: float
    online_total_hours: float
    online_throughput: float
    online_dataset_gb: float
    online_cost_euros: float
    offline_cost_euros: float
    offline_8tb_storage_cost_euros: float

    @property
    def throughput_ratio(self) -> float:
        if not self.offline_throughput:
            return float("nan")
        return self.online_throughput / self.offline_throughput


def extrapolate_table2() -> Table2Extrapolation:
    """Reproduce the shape of the paper's Table 2 with the performance model.

    Offline: 250 simulations (25 000 samples, 100 GB), 100 epochs, 2 000 cores
    for generation, 4 GPUs for training.  Online: 20 000 simulations (2 000 000
    samples, 8 TB), 512 concurrent clients of 10 cores, 4 GPUs, Reservoir.
    """
    grid_cells = 1000 * 1000
    model_parameters = 514_000_000
    solver_cost = SolverCostModel()
    training_cost = TrainingCostModel()
    io_cost = IOCostModel()
    cluster_cost = ClusterCostModel()

    offline = simulate_offline_pipeline(
        num_simulations=250,
        steps_per_simulation=100,
        grid_cells=grid_cells,
        cores_per_client=20,
        concurrent_clients=100,
        num_gpus=4,
        model_parameters=model_parameters,
        num_epochs=100,
        batch_size=10,
        solver_cost=solver_cost,
        training_cost=training_cost,
        io_cost=io_cost,
    )

    online_sim = PipelineSimulator(
        num_simulations=20_000,
        steps_per_simulation=100,
        grid_cells=grid_cells,
        cores_per_client=10,
        concurrent_clients=512,
        num_gpus=4,
        model_parameters=model_parameters,
        batch_size=10,
        buffer_kind="reservoir",
        buffer_capacity=6_000,
        buffer_threshold=1_000,
        tick=10.0,
        solver_cost=solver_cost,
        training_cost=training_cost,
    )
    online = online_sim.run()

    online_dataset_gb = 20_000 * 100 * grid_cells * 4 / 1e9
    offline_dataset_gb = offline.dataset_bytes / 1e9

    online_core_hours = 512 * 10 * online.total_hours
    online_gpu_hours = 4 * online.total_hours
    offline_core_hours = 2_000 * offline.generation_seconds / 3600.0
    offline_gpu_hours = 4 * offline.training_seconds / 3600.0

    return Table2Extrapolation(
        offline_total_hours=offline.total_hours,
        offline_throughput=offline.samples_per_second,
        offline_dataset_gb=offline_dataset_gb,
        online_total_hours=online.total_hours,
        online_throughput=online.mean_throughput,
        online_dataset_gb=online_dataset_gb,
        online_cost_euros=cluster_cost.compute_cost(online_core_hours, online_gpu_hours),
        offline_cost_euros=cluster_cost.compute_cost(offline_core_hours, offline_gpu_hours)
        + cluster_cost.storage_cost(offline_dataset_gb / 1000.0),
        offline_8tb_storage_cost_euros=cluster_cost.storage_cost(online_dataset_gb / 1000.0),
    )
