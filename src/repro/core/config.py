"""Study-level configuration objects."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.parallel.transport import TransportConfig
from repro.server.trainer import TrainerConfig
from repro.utils.exceptions import ConfigurationError


@dataclass
class OnlineStudyConfig:
    """Configuration of an online (streamed) training study.

    The defaults are a scaled-down version of the paper's Section 4.3-4.5
    setup: clients submitted in series, per-rank Reservoir buffers with a
    capacity of roughly a quarter of the unique samples, batch size 10,
    Adam(1e-3) with the learning rate halved on a fixed sample schedule.
    """

    # Ensemble.
    num_simulations: int = 50
    series_sizes: Optional[Sequence[int]] = None
    max_concurrent_clients: int = 8
    inter_series_delay: float = 0.0
    client_step_delay: float = 0.0

    # Server.
    num_ranks: int = 1
    buffer_kind: str = "reservoir"
    buffer_capacity: int = 250
    buffer_threshold: int = 50
    batch_size: int = 10
    validation_interval: int = 100
    max_batches: Optional[int] = None
    learning_rate: float = 1e-3
    lr_step_samples: int = 10_000

    #: Transport: a backend name (``"inproc"``, ``"mp"``, ``"shm"``,
    #: ``"tcp"``) or a full :class:`repro.parallel.transport.TransportConfig`
    #: carrying the backend-specific options (tcp address, shard count).
    #: After construction this is always the backend *name*; the normalised
    #: object lives in :attr:`transport_config`.  The sharded serving tier is
    #: ``TransportConfig.shard`` (see ``docs/scaling.md``).
    transport: Union[str, TransportConfig] = "inproc"
    #: The normalised transport configuration — the single object the study
    #: driver hands to ``make_transport`` and the launcher.  Derived in
    #: ``__post_init__`` from :attr:`transport`.
    transport_config: TransportConfig = field(init=False, repr=False, compare=False)

    # Misc.
    batch_compute_delay: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_simulations <= 0:
            raise ConfigurationError("num_simulations must be positive")
        if self.num_ranks <= 0:
            raise ConfigurationError("num_ranks must be positive")
        if self.buffer_capacity <= 0:
            raise ConfigurationError("buffer_capacity must be positive")
        if self.buffer_threshold < 0 or self.buffer_threshold > self.buffer_capacity:
            raise ConfigurationError("buffer_threshold must be in [0, capacity]")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.max_concurrent_clients <= 0:
            raise ConfigurationError("max_concurrent_clients must be positive")
        self._normalize_transport()

    def _normalize_transport(self) -> None:
        """Normalise :attr:`transport` into :attr:`transport_config`.

        ``TransportConfig.resolve`` is the single normalization point (the
        config validates every transport field); :attr:`transport` is
        collapsed to the backend name for summaries and backend dispatch.
        """
        resolved = TransportConfig.resolve(self.transport)
        self.transport_config = resolved
        self.transport = resolved.backend

    @property
    def lr_step_batches(self) -> int:
        """Learning-rate decay period in batches per rank.

        The paper keeps the decay tied to the number of *samples* seen, so with
        more GPUs the per-rank batch period shrinks: 1 000/500/250 batches for
        1/2/4 GPUs at batch size 10 and a 10 000-sample period.
        """
        per_batch = self.batch_size * self.num_ranks
        return max(1, self.lr_step_samples // per_batch)

    def trainer_config(self) -> TrainerConfig:
        """Build the per-rank trainer configuration."""
        return TrainerConfig(
            batch_size=self.batch_size,
            validation_interval=self.validation_interval,
            max_batches=self.max_batches,
            batch_compute_delay=self.batch_compute_delay,
        )


@dataclass
class OfflineStudyConfig:
    """Configuration of the offline (file-based, multi-epoch) baseline."""

    num_simulations: int = 50
    num_epochs: int = 1
    num_ranks: int = 1
    batch_size: int = 10
    lr_step_samples: int = 10_000
    validation_interval: int = 100
    max_batches: Optional[int] = None
    io_delay_per_sample: float = 0.0
    batch_compute_delay: float = 0.0
    seed: int = 0
    store_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.num_simulations <= 0:
            raise ConfigurationError("num_simulations must be positive")
        if self.num_epochs <= 0:
            raise ConfigurationError("num_epochs must be positive")
        if self.num_ranks <= 0:
            raise ConfigurationError("num_ranks must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")

    @property
    def lr_step_batches(self) -> int:
        per_batch = self.batch_size * self.num_ranks
        return max(1, self.lr_step_samples // per_batch)

    def trainer_config(self) -> TrainerConfig:
        """The per-rank training-loop configuration.

        The loader is not a buffer, so there is no population to record.
        """
        return TrainerConfig(
            batch_size=self.batch_size,
            validation_interval=self.validation_interval,
            max_batches=self.max_batches,
            record_population=False,
            batch_compute_delay=self.batch_compute_delay,
        )


@dataclass
class SurrogateArchitecture:
    """Architecture of the surrogate MLP (paper: two hidden layers of 256)."""

    hidden_sizes: Tuple[int, ...] = (256, 256)

    def __post_init__(self) -> None:
        if not self.hidden_sizes:
            raise ConfigurationError("the surrogate needs at least one hidden layer")
