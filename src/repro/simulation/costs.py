"""Cost models used by the pipeline simulator.

All models are deliberately simple first-order throughput models whose default
constants are calibrated against the figures the paper reports (Table 1 and
Table 2): a 20-core solver instance produces one 1000x1000 time step every
~0.8 s, a V100 trains ~120-150 samples/s at batch size 10 on the 514M-parameter
MLP, the parallel file system reads ~40 MB/s per data-loader worker stream for
this access pattern.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SolverCostModel:
    """Time for one client to produce one time step.

    ``seconds_per_cell_per_core`` is the per-time-step cost normalised by grid
    cells and cores, so scaling the grid or the per-client core count rescales
    the production rate accordingly.
    """

    seconds_per_cell_per_core: float = 1.6e-5
    startup_seconds: float = 2.0

    def step_seconds(self, grid_cells: int, cores_per_client: int) -> float:
        if grid_cells <= 0 or cores_per_client <= 0:
            raise ValueError("grid_cells and cores_per_client must be positive")
        return self.seconds_per_cell_per_core * grid_cells / cores_per_client

    def simulation_seconds(self, grid_cells: int, cores_per_client: int, num_steps: int) -> float:
        return self.startup_seconds + num_steps * self.step_seconds(grid_cells, cores_per_client)


@dataclass(frozen=True)
class TrainingCostModel:
    """Time for one GPU to process one training batch.

    The cost is linear in the number of model parameters and in the batch
    size, plus a fixed per-batch overhead (kernel launches, all-reduce).
    """

    seconds_per_parameter_per_sample: float = 1.1e-11
    per_batch_overhead: float = 0.01
    allreduce_overhead_per_rank: float = 0.002

    def batch_seconds(self, num_parameters: int, batch_size: int, num_ranks: int = 1) -> float:
        if num_parameters <= 0 or batch_size <= 0 or num_ranks <= 0:
            raise ValueError("num_parameters, batch_size and num_ranks must be positive")
        compute = self.seconds_per_parameter_per_sample * num_parameters * batch_size
        sync = self.allreduce_overhead_per_rank * (num_ranks - 1)
        return compute + self.per_batch_overhead + sync

    def samples_per_second(self, num_parameters: int, batch_size: int, num_ranks: int = 1) -> float:
        return batch_size / self.batch_seconds(num_parameters, batch_size, num_ranks)


@dataclass(frozen=True)
class IOCostModel:
    """Parallel file-system model for the offline baseline.

    ``read_bandwidth_bytes_per_s`` is the effective per-stream bandwidth of the
    mmap-based random time-step reads (small, scattered 4 MB accesses), not the
    file system's peak streaming bandwidth.  The default is calibrated so the
    paper's offline baseline (8 loader streams per GPU, 4 GPUs, 4 MB samples)
    lands near its reported ~38 samples/s.
    """

    read_bandwidth_bytes_per_s: float = 5.0e6
    write_bandwidth_bytes_per_s: float = 2.0e8
    per_file_overhead_seconds: float = 5e-3
    streams: int = 8

    def write_seconds(self, nbytes: int, num_files: int = 1) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        transfer = nbytes / self.write_bandwidth_bytes_per_s
        return transfer + num_files * self.per_file_overhead_seconds


@dataclass(frozen=True)
class ClusterCostModel:
    """Euro cost of the resources, matching the paper's consolidated figures.

    1 000 core-hours = 6 EUR, 1 000 GPU(V100)-hours = 360 EUR,
    1 TB of SSD storage = 56 EUR.
    """

    euros_per_core_hour: float = 6.0 / 1000.0
    euros_per_gpu_hour: float = 360.0 / 1000.0
    euros_per_terabyte: float = 56.0

    def compute_cost(self, core_hours: float, gpu_hours: float) -> float:
        return core_hours * self.euros_per_core_hour + gpu_hours * self.euros_per_gpu_hour

    def storage_cost(self, terabytes: float) -> float:
        return terabytes * self.euros_per_terabyte
