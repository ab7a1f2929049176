"""Multi-epoch offline trainer (the paper's baseline training procedure).

Offline training reads a fixed dataset from disk and presents it for several
epochs, with uniformly shuffled batches.  With several ranks the trainer
shards every epoch across the ranks (one shard per "GPU") and all-reduces
gradients after each batch, exactly like the online data-parallel server.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional


from repro.core.metrics import LossHistory, ThroughputMeter, TrainingMetrics, merge_worker_metrics
from repro.nn.losses import MSELoss
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.schedulers import StepLR
from repro.offline.dataloader import DataLoader
from repro.offline.dataset import SimulationDataset
from repro.parallel.communicator import ThreadCommunicator
from repro.parallel.spmd import SPMDExecutor
from repro.server.ddp import broadcast_parameters, sync_gradients
from repro.server.validation import ValidationSet, Validator


@dataclass
class OfflineTrainingConfig:
    """Hyper-parameters of the offline baseline."""

    num_epochs: int = 1
    batch_size: int = 10
    num_ranks: int = 1
    num_workers: int = 0
    learning_rate: float = 1e-3
    lr_step_batches: int = 1_000
    lr_gamma: float = 0.5
    lr_min: float = 2.5e-4
    validation_interval: int = 100
    throughput_window: int = 10
    shuffle: bool = True
    seed: int = 0
    io_delay_per_sample: float = 0.0
    batch_compute_delay: float = 0.0
    max_batches: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_epochs <= 0:
            raise ValueError("num_epochs must be positive")
        if self.num_ranks <= 0:
            raise ValueError("num_ranks must be positive")


@dataclass
class OfflineTrainingResult:
    """Outcome of an offline training run."""

    model: Module
    per_rank_metrics: List[TrainingMetrics]
    summary: dict
    epochs_completed: int
    wall_time: float

    @property
    def metrics(self) -> TrainingMetrics:
        return self.per_rank_metrics[0]

    @property
    def best_validation_loss(self) -> float:
        return self.metrics.losses.best_validation_loss


class OfflineTrainer:
    """Epoch-based training from a :class:`SimulationDataset` on disk."""

    def __init__(
        self,
        dataset: SimulationDataset,
        config: OfflineTrainingConfig,
        model_factory: Callable[[], Module],
        validation: Optional[ValidationSet] = None,
    ) -> None:
        self.dataset = dataset
        self.config = config
        self.model_factory = model_factory
        self.validation = validation

    # ------------------------------------------------------------------- run
    def _rank_main(self, comm: ThreadCommunicator, shared_models: List[Optional[Module]]) -> TrainingMetrics:
        cfg = self.config
        model = self.model_factory()
        optimizer = Adam(model.parameters(), lr=cfg.learning_rate)
        scheduler = None
        if cfg.lr_step_batches > 0:
            scheduler = StepLR(optimizer, step_size=cfg.lr_step_batches,
                               gamma=cfg.lr_gamma, min_lr=cfg.lr_min)
        loss = MSELoss()
        validator = Validator(self.validation) if self.validation is not None else None
        metrics = TrainingMetrics(rank=comm.rank)
        metrics.throughput = ThroughputMeter(window=cfg.throughput_window)
        metrics.losses = LossHistory()

        if comm.size > 1:
            broadcast_parameters(model, comm, root=0)

        loader = DataLoader(
            self.dataset,
            batch_size=cfg.batch_size,
            shuffle=cfg.shuffle,
            num_workers=cfg.num_workers,
            seed=cfg.seed,
            rank=comm.rank,
            world_size=comm.size,
        )

        start = time.monotonic()
        batch_index = 0
        stop = False
        for _epoch in range(cfg.num_epochs):
            if stop:
                break
            for inputs, targets in loader:
                if cfg.max_batches is not None and batch_index >= cfg.max_batches:
                    stop = True
                    break
                if cfg.io_delay_per_sample > 0:
                    # Emulates the I/O cost per sample of reading from the
                    # parallel filesystem at the paper's full field size.
                    time.sleep(cfg.io_delay_per_sample * inputs.shape[0])
                model.zero_grad()
                predictions = model.forward(inputs)
                loss_value = loss.forward(predictions, targets)
                model.backward(loss.backward())
                if comm.size > 1:
                    sync_gradients(model, comm, average=True)
                optimizer.step()
                if scheduler is not None:
                    scheduler.step()
                if cfg.batch_compute_delay > 0:
                    time.sleep(cfg.batch_compute_delay)
                batch_index += 1
                samples_seen = batch_index * cfg.batch_size * comm.size
                metrics.batches_trained = batch_index
                metrics.samples_trained += int(inputs.shape[0])
                metrics.losses.record_train(batch_index, samples_seen, float(loss_value))
                metrics.throughput.record_batch(int(inputs.shape[0]))
                if (
                    validator is not None
                    and cfg.validation_interval > 0
                    and batch_index % cfg.validation_interval == 0
                    and comm.rank == 0
                ):
                    val_loss = validator.evaluate(model)
                    metrics.losses.record_validation(batch_index, samples_seen, val_loss)

        if validator is not None and comm.rank == 0:
            samples_seen = batch_index * cfg.batch_size * comm.size
            metrics.losses.record_validation(batch_index, samples_seen, validator.evaluate(model))
        metrics.wall_time = time.monotonic() - start
        shared_models[comm.rank] = model
        return metrics

    def run(self) -> OfflineTrainingResult:
        """Train for the configured number of epochs and return the result."""
        cfg = self.config
        shared_models: List[Optional[Module]] = [None] * cfg.num_ranks
        start = time.monotonic()
        per_rank = SPMDExecutor(cfg.num_ranks, timeout=None).run(self._rank_main, shared_models)
        wall_time = time.monotonic() - start
        model = shared_models[0]
        assert model is not None
        return OfflineTrainingResult(
            model=model,
            per_rank_metrics=per_rank,
            summary=merge_worker_metrics(per_rank),
            epochs_completed=cfg.num_epochs,
            wall_time=wall_time,
        )
