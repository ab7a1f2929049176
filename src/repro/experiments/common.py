"""Shared plumbing of the experiment drivers.

The paper's experiments all share the same use case (heat-equation surrogate)
and differ only in the buffer policy, the number of GPUs and the ensemble
size.  :class:`ExperimentScale` collects the scaled-down knobs; the helpers
build the case, the validation set, and run one online or offline training
with a given buffer policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.core.config import OfflineStudyConfig, OnlineStudyConfig, SurrogateArchitecture
from repro.core.heat_usecase import HeatSurrogateCase, HeatSurrogateSpec
from repro.core.results import OfflineStudyResult, OnlineStudyResult
from repro.core.study import OfflineStudy, OnlineStudy
from repro.offline.storage import SimulationStore
from repro.parallel.transport import TransportConfig
from repro.server.validation import ValidationSet
from repro.solvers.heat2d import HeatEquationConfig


@dataclass(frozen=True)
class ExperimentScale:
    """Scaled-down experiment size (the paper values are in the docstrings).

    Paper: 1000x1000 grid, 100 steps/simulation, 250 simulations (25 000 unique
    samples), buffer capacity 6 000 and threshold 1 000 per rank, MLP 256x256,
    batch size 10, validation on 10 held-out simulations.
    """

    nx: int = 12
    ny: int = 12
    num_steps: int = 15
    num_simulations: int = 18
    series_sizes: Tuple[int, ...] = (8, 8, 2)
    hidden_sizes: Tuple[int, ...] = (32, 32)
    buffer_capacity: int = 64
    buffer_threshold: int = 16
    batch_size: int = 10
    validation_simulations: int = 3
    validation_interval: int = 20
    lr_step_samples: int = 600
    client_step_delay: float = 0.002
    inter_series_delay: float = 0.3
    max_concurrent_clients: int = 4
    batch_compute_delay: float = 0.002
    #: Per-sample read latency of the offline baseline.  The paper's offline
    #: training is I/O bound (4 MB samples over GPFS, ~38 samples/s on 4 GPUs);
    #: the scaled samples are tiny, so this delay restores the paper's regime
    #: where offline throughput sits well below the online data-production rate.
    offline_io_delay_per_sample: float = 0.004
    seed: int = 7

    @property
    def unique_samples(self) -> int:
        return self.num_simulations * self.num_steps


def default_scale() -> ExperimentScale:
    """The default scaled configuration used by tests and benchmarks."""
    return ExperimentScale()


def build_case(scale: ExperimentScale) -> HeatSurrogateCase:
    """Build the heat-equation surrogate case at the requested scale."""
    spec = HeatSurrogateSpec(
        solver=HeatEquationConfig(nx=scale.nx, ny=scale.ny, num_steps=scale.num_steps),
        architecture=SurrogateArchitecture(hidden_sizes=scale.hidden_sizes),
        seed=scale.seed,
    )
    return HeatSurrogateCase(spec)


def build_validation(case: HeatSurrogateCase, scale: ExperimentScale) -> ValidationSet:
    """Generate the held-out validation simulations (never used for training)."""
    return case.generate_validation_set(num_simulations=scale.validation_simulations)


def online_config(
    scale: ExperimentScale,
    buffer_kind: str,
    num_ranks: int = 1,
    use_series: bool = True,
    max_batches: Optional[int] = None,
    transport: Union[str, TransportConfig] = "inproc",
) -> OnlineStudyConfig:
    """Online study configuration for one buffer policy and GPU count.

    ``transport`` takes a backend name or a full
    :class:`~repro.parallel.transport.TransportConfig` (batching, ring
    geometry, watchdog timeouts, and ``shard`` for the sharded serving tier).
    """
    return OnlineStudyConfig(
        num_simulations=scale.num_simulations,
        series_sizes=list(scale.series_sizes) if use_series else None,
        max_concurrent_clients=scale.max_concurrent_clients,
        inter_series_delay=scale.inter_series_delay if use_series else 0.0,
        client_step_delay=scale.client_step_delay,
        num_ranks=num_ranks,
        buffer_kind=buffer_kind,
        buffer_capacity=scale.buffer_capacity,
        buffer_threshold=scale.buffer_threshold,
        batch_size=scale.batch_size,
        validation_interval=scale.validation_interval,
        max_batches=max_batches,
        lr_step_samples=scale.lr_step_samples,
        batch_compute_delay=scale.batch_compute_delay,
        seed=scale.seed,
        transport=transport,
    )


def run_online_with_buffer(
    buffer_kind: str,
    scale: ExperimentScale | None = None,
    num_ranks: int = 1,
    case: Optional[HeatSurrogateCase] = None,
    validation: Optional[ValidationSet] = None,
    use_series: bool = True,
    max_batches: Optional[int] = None,
    num_simulations: Optional[int] = None,
    transport: Union[str, TransportConfig] = "inproc",
) -> OnlineStudyResult:
    """Run one online study with the given buffer policy and rank count."""
    scale = scale or default_scale()
    case = case or build_case(scale)
    config = online_config(scale, buffer_kind, num_ranks, use_series, max_batches,
        transport=transport)
    if num_simulations is not None:
        config.num_simulations = num_simulations
        config.series_sizes = None
    study = OnlineStudy(case, config, validation=validation)
    return study.run()


def run_offline_baseline(
    scale: ExperimentScale | None = None,
    num_epochs: int = 1,
    num_ranks: int = 1,
    case: Optional[HeatSurrogateCase] = None,
    validation: Optional[ValidationSet] = None,
    store: Optional[SimulationStore] = None,
    store_dir=None,
    max_batches: Optional[int] = None,
    io_delay_per_sample: Optional[float] = None,
) -> OfflineStudyResult:
    """Run the offline baseline: generate a dataset to disk and train epochs."""
    scale = scale or default_scale()
    case = case or build_case(scale)
    if io_delay_per_sample is None:
        io_delay_per_sample = scale.offline_io_delay_per_sample
    config = OfflineStudyConfig(
        num_simulations=scale.num_simulations,
        num_epochs=num_epochs,
        num_ranks=num_ranks,
        batch_size=scale.batch_size,
        validation_interval=scale.validation_interval,
        lr_step_samples=scale.lr_step_samples,
        max_batches=max_batches,
        seed=scale.seed,
        store_dir=store_dir,
        io_delay_per_sample=io_delay_per_sample,
        batch_compute_delay=scale.batch_compute_delay,
    )
    study = OfflineStudy(case, config, validation=validation, store=store)
    return study.run()
