"""Discrete-time simulator of the online pipeline and analytic offline estimate.

The online simulator advances a virtual clock in small ticks.  At every tick:

* running clients produce time steps at the rate given by the solver cost
  model (clients are organised in series, as the launcher submits them);
* produced samples are pushed to the per-rank buffer replica (round-robin);
* each GPU rank consumes batches at the rate given by the training cost model,
  subject to the buffer policy: FIFO/FIRO can only deliver samples once
  (consumption is production-limited), the Reservoir can re-deliver seen
  samples and is therefore GPU-limited once the threshold is passed.

This is intentionally a *model* — the real threaded implementation lives in
:mod:`repro.server` / :mod:`repro.client` — but it captures the resource
balance that the paper's Figure 2 and Table 2 describe and lets the benchmarks
extrapolate to the paper's 20 000-simulation, 8 TB configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.simulation.costs import IOCostModel, SolverCostModel, TrainingCostModel


@dataclass
class OnlinePipelineEstimate:
    """Result of one online pipeline simulation."""

    total_seconds: float
    batches_trained: int
    mean_throughput: float
    times: np.ndarray
    buffer_population: np.ndarray

    @property
    def total_hours(self) -> float:
        return self.total_seconds / 3600.0


@dataclass
class OfflinePipelineEstimate:
    """Analytic estimate of the offline (file-based) baseline."""

    generation_seconds: float
    training_seconds: float
    samples_per_second: float
    dataset_bytes: int

    @property
    def total_seconds(self) -> float:
        return self.generation_seconds + self.training_seconds

    @property
    def total_hours(self) -> float:
        return self.total_seconds / 3600.0


@dataclass
class PipelineSimulator:
    """Tick-based simulation of the streamed-training pipeline.

    Parameters describe the study (ensemble size, series, per-client resources,
    grid size, model size, buffer policy) and the cost models supply the rates.
    """

    num_simulations: int
    steps_per_simulation: int
    grid_cells: int
    cores_per_client: int
    concurrent_clients: int
    num_gpus: int
    model_parameters: int
    batch_size: int = 10
    buffer_kind: str = "reservoir"
    buffer_capacity: int = 6_000
    buffer_threshold: int = 1_000
    series_sizes: Optional[Sequence[int]] = None
    inter_series_delay: float = 30.0
    solver_cost: SolverCostModel = field(default_factory=SolverCostModel)
    training_cost: TrainingCostModel = field(default_factory=TrainingCostModel)
    tick: float = 1.0
    max_seconds: float = 2_000_000.0

    # ------------------------------------------------------------------ setup
    def _series(self) -> List[int]:
        if self.series_sizes:
            series = list(self.series_sizes)
            covered = sum(series)
            if covered < self.num_simulations:
                series.append(self.num_simulations - covered)
            return series
        # Default: fill series of `concurrent_clients` simulations.
        series = []
        remaining = self.num_simulations
        while remaining > 0:
            series.append(min(self.concurrent_clients, remaining))
            remaining -= series[-1]
        return series

    # -------------------------------------------------------------------- run
    def run(self) -> OnlinePipelineEstimate:
        """Simulate the pipeline until all data is produced and consumed."""
        step_seconds = self.solver_cost.step_seconds(self.grid_cells, self.cores_per_client)
        production_rate_per_client = 1.0 / step_seconds  # samples / second
        batch_seconds = self.training_cost.batch_seconds(
            self.model_parameters, self.batch_size, self.num_gpus
        )
        per_gpu_batch_rate = 1.0 / batch_seconds

        series = self._series()
        total_unique = self.num_simulations * self.steps_per_simulation
        buffer_capacity_total = self.buffer_capacity * self.num_gpus
        threshold_total = self.buffer_threshold * self.num_gpus

        clock = 0.0
        produced = 0.0
        consumed_total = 0.0
        batches = 0.0

        # Buffer state: unseen samples (never consumed) and, for the Reservoir,
        # seen samples retained for re-reads.
        unseen = 0.0
        seen = 0.0

        series_index = 0
        series_remaining = series[0] * self.steps_per_simulation
        series_delay_left = 0.0
        times: List[float] = []
        population: List[float] = []

        reservoir = self.buffer_kind.lower() == "reservoir"

        while clock < self.max_seconds:
            tick = self.tick
            # ---------------------------------------------------- production
            producing = series_index < len(series) and series_delay_left <= 0.0
            if producing:
                active_clients = min(series[series_index], self.concurrent_clients)
                produced_now = min(
                    active_clients * production_rate_per_client * tick, series_remaining
                )
                # Back-pressure: FIFO/FIRO stop producing when full; Reservoir
                # only blocks when full of unseen samples.
                free_space = buffer_capacity_total - (unseen + (seen if not reservoir else 0.0))
                if reservoir:
                    free_space = buffer_capacity_total - unseen
                produced_now = max(0.0, min(produced_now, free_space))
                unseen += produced_now
                if reservoir:
                    # Seen samples are evicted to make room for new ones.
                    overflow = max(0.0, unseen + seen - buffer_capacity_total)
                    seen = max(0.0, seen - overflow)
                produced += produced_now
                series_remaining -= produced_now
                if series_remaining <= 1e-9:
                    series_index += 1
                    if series_index < len(series):
                        series_delay_left = self.inter_series_delay
                        series_remaining = series[series_index] * self.steps_per_simulation
            elif series_index < len(series):
                series_delay_left -= tick

            reception_over = produced >= total_unique - 1e-9 and series_index >= len(series)

            # --------------------------------------------------- consumption
            population_now = unseen + seen
            can_train = population_now > 0 and (
                reception_over or population_now > threshold_total
            )
            consumed_now = 0.0
            if can_train:
                gpu_capacity = self.num_gpus * per_gpu_batch_rate * self.batch_size * tick
                if reservoir:
                    # GPU-limited: re-reads fill any gap left by fresh data.
                    consumed_now = gpu_capacity
                    fresh = min(unseen, consumed_now)
                    unseen -= fresh
                    seen += fresh
                    if reception_over:
                        # Drain mode: consumed samples leave the buffer.
                        drained = min(seen, consumed_now)
                        seen -= drained
                else:
                    # FIFO/FIRO: each sample is consumed exactly once.
                    consumed_now = min(gpu_capacity, unseen)
                    unseen -= consumed_now
                consumed_total += consumed_now
                batches += consumed_now / self.batch_size

            times.append(clock)
            population.append(unseen + seen)

            clock += tick
            if reception_over:
                if reservoir and (unseen + seen) <= 1e-9:
                    break
                if not reservoir and unseen <= 1e-9:
                    break

        mean_throughput = consumed_total / clock if clock > 0 else 0.0
        return OnlinePipelineEstimate(
            total_seconds=clock,
            batches_trained=int(round(batches)),
            mean_throughput=mean_throughput,
            times=np.asarray(times),
            buffer_population=np.asarray(population),
        )


def simulate_offline_pipeline(
    num_simulations: int,
    steps_per_simulation: int,
    grid_cells: int,
    cores_per_client: int,
    concurrent_clients: int,
    num_gpus: int,
    model_parameters: int,
    num_epochs: int,
    batch_size: int = 10,
    bytes_per_sample: Optional[int] = None,
    solver_cost: SolverCostModel | None = None,
    training_cost: TrainingCostModel | None = None,
    io_cost: IOCostModel | None = None,
) -> OfflinePipelineEstimate:
    """Analytic estimate of the offline baseline (generation + multi-epoch training).

    Training throughput is the minimum of the GPU compute rate and the file
    system read rate — the offline baseline of the paper is I/O bound, which is
    what caps it at ~38 samples/s on 4 GPUs.
    """
    solver_cost = solver_cost or SolverCostModel()
    training_cost = training_cost or TrainingCostModel()
    io_cost = io_cost or IOCostModel()
    bytes_per_sample = bytes_per_sample or grid_cells * 4

    total_samples = num_simulations * steps_per_simulation
    dataset_bytes = total_samples * bytes_per_sample

    # Generation: the ensemble runs with `concurrent_clients` simultaneous
    # simulations, then everything is written once to disk.
    sim_seconds = solver_cost.simulation_seconds(grid_cells, cores_per_client, steps_per_simulation)
    waves = int(np.ceil(num_simulations / max(concurrent_clients, 1)))
    generation_seconds = waves * sim_seconds + io_cost.write_seconds(dataset_bytes, num_simulations)

    # Training: per-epoch cost limited by min(GPU rate, read rate).
    gpu_rate = num_gpus * training_cost.samples_per_second(model_parameters, batch_size, num_gpus)
    read_rate = (
        io_cost.read_bandwidth_bytes_per_s * io_cost.streams * num_gpus / bytes_per_sample
    )
    effective_rate = min(gpu_rate, read_rate)
    training_seconds = num_epochs * total_samples / effective_rate

    return OfflinePipelineEstimate(
        generation_seconds=generation_seconds,
        training_seconds=training_seconds,
        samples_per_second=effective_rate,
        dataset_bytes=dataset_bytes,
    )
