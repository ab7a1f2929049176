"""Training thread of a server rank.

The training thread embeds a classical supervised loop whose only difference
with an offline loop is the data source: batches come from the training buffer
filled concurrently by the data-aggregator thread.  With several ranks the
workers synchronise gradients after every batch (synchronous data-parallel
training) and agree collectively on when to stop: training terminates once any
rank's buffer is exhausted (reception over and buffer empty), which is the
paper's termination condition applied to the data-parallel case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.buffers.base import TrainingBuffer
from repro.buffers.columns import ColumnBatch
from repro.buffers.stats import OccurrenceTracker
from repro.core.metrics import TrainingMetrics
from repro.nn.losses import MSELoss
from repro.nn.module import Module
from repro.nn.optim import Optimizer
from repro.nn.schedulers import LRScheduler
from repro.parallel.communicator import ThreadCommunicator
from repro.server.checkpointing import ServerCheckpointer
from repro.server.ddp import all_ranks_have_data, broadcast_parameters, sync_gradients
from repro.server.validation import Validator
from repro.utils.timing import WallClock

Array = np.ndarray


@dataclass
class TrainerConfig:
    """Hyper-parameters of the online training loop.

    Attributes mirror the paper's experimental setup: batch size 10, initial
    learning rate 1e-3 halved on a fixed schedule, validation every 100
    batches, throughput measured over 10-batch windows.
    """

    batch_size: int = 10
    validation_interval: int = 100
    throughput_window: int = 10
    max_batches: Optional[int] = None
    get_timeout: float = 60.0
    record_population: bool = True
    track_occurrences: bool = True
    checkpoint_interval: int = 0
    #: Optional sleep per batch emulating the GPU compute cost of the paper's
    #: 514M-parameter surrogate (the scaled-down model trains much faster than
    #: the real one, which would distort the production/consumption balance).
    batch_compute_delay: float = 0.0


class TrainingWorker:
    """One rank's training thread (model replica + optimizer + buffer)."""

    def __init__(
        self,
        rank: int,
        model: Module,
        optimizer: Optimizer,
        buffer: TrainingBuffer,
        config: TrainerConfig,
        scheduler: Optional[LRScheduler] = None,
        validator: Optional[Validator] = None,
        comm: Optional[ThreadCommunicator] = None,
        checkpointer: Optional[ServerCheckpointer] = None,
        on_batch: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        self.rank = int(rank)
        self.model = model
        self.optimizer = optimizer
        self.buffer = buffer
        self.config = config
        self.loss = MSELoss()
        self.scheduler = scheduler
        self.validator = validator
        self.comm = comm
        self.checkpointer = checkpointer
        self.on_batch = on_batch
        self.metrics = TrainingMetrics(rank=self.rank)
        self.metrics.throughput.window = config.throughput_window
        self.occurrences = OccurrenceTracker()
        self._clock = WallClock()

    # ------------------------------------------------------------------ batch
    def _stack_batch(self, batch: ColumnBatch) -> tuple[Array, Array]:
        """A :class:`ColumnBatch` drawn from the buffer **is** the stacked
        batch: its inputs matrix and targets block go to the nn forward pass
        as-is, with no per-record objects and no copy at all."""
        return batch.inputs, batch.targets

    def _train_batch(self, batch: ColumnBatch, sync: bool = True) -> float:
        inputs, targets = self._stack_batch(batch)
        self.model.zero_grad()
        predictions = self.model.forward(inputs)
        loss_value = self.loss.forward(predictions, targets)
        self.model.backward(self.loss.backward())
        if self.comm is not None and sync:
            sync_gradients(self.model, self.comm, average=True)
        self.optimizer.step()
        if self.scheduler is not None:
            self.scheduler.step()
        if self.config.batch_compute_delay > 0:
            time.sleep(self.config.batch_compute_delay)
        return float(loss_value)

    def _collective_continue(self, have_data: bool) -> bool:
        """Agree across ranks whether training continues this step."""
        if self.comm is None:
            return have_data
        return all_ranks_have_data(have_data, self.comm)

    # ------------------------------------------------------------------- run
    def run(self) -> TrainingMetrics:
        """Run the training loop until the buffer is exhausted (or max_batches)."""
        start = self._clock.now()
        if self.comm is not None and self.comm.size > 1:
            broadcast_parameters(self.model, self.comm, root=0)

        batch_index = 0
        while True:
            if self.config.max_batches is not None and batch_index >= self.config.max_batches:
                # Still participate in one last collective so peers don't hang.
                self._collective_continue(False)
                break
            batch = self.buffer.get_batch_columns(
                self.config.batch_size, timeout=self.config.get_timeout
            )
            # Open the throughput window once data is available but before the
            # first batch is trained: the first measurement then covers
            # `window` full batch intervals, excluding the initial buffer
            # threshold-fill wait (previously the window only opened at the
            # *completion* of the first batch, overestimating the first
            # Figure-2 point by ~1/window).  No-op after the first batch.
            self.metrics.throughput.start()
            keep_going = self._collective_continue(len(batch) > 0)
            if not batch:
                break
            # A rank can hold a final (possibly partial) batch while the
            # collective already agreed to stop (another rank ran dry).  Those
            # samples were consumed from the buffer, so train on them rather
            # than discarding them — without the gradient collective, because
            # ranks that agreed to stop with no data will not participate.
            loss_value = self._train_batch(batch, sync=keep_going)
            batch_index += 1
            self.metrics.batches_trained = batch_index
            self.metrics.samples_trained += len(batch)
            self.metrics.losses.record_train(
                batch_index, self._global_samples(batch_index), loss_value
            )
            self.metrics.throughput.record_batch(len(batch))

            if self.config.track_occurrences:
                self.occurrences.record_columns(batch.source_ids, batch.time_steps)
            if self.config.record_population:
                snapshot = self.buffer.snapshot()
                self.metrics.buffer_population.record(
                    self._clock.now() - start,
                    snapshot["size"],
                    snapshot.get("num_unseen"),
                )
            if self.on_batch is not None:
                self.on_batch(batch_index, loss_value)

            if (
                self.validator is not None
                and self.config.validation_interval > 0
                and batch_index % self.config.validation_interval == 0
                and self.rank == 0
            ):
                val_loss = self.validator.evaluate(self.model)
                self.metrics.losses.record_validation(
                    batch_index, self._global_samples(batch_index), val_loss
                )

            if (
                self.checkpointer is not None
                and self.checkpointer.should_checkpoint(batch_index)
            ):
                self.checkpointer.save(
                    self.model,
                    self.optimizer,
                    batches_trained=batch_index,
                    samples_trained=self.metrics.samples_trained,
                )

            if not keep_going:
                break

        # Final validation so every run reports an end-of-training MSE.
        if self.validator is not None and self.rank == 0:
            val_loss = self.validator.evaluate(self.model)
            self.metrics.losses.record_validation(
                batch_index, self._global_samples(batch_index), val_loss
            )

        self.metrics.occurrence_histogram = self.occurrences.histogram()
        self.metrics.wall_time = self._clock.now() - start
        return self.metrics

    def _global_samples(self, batch_index: int) -> int:
        """Simulation time steps seen across all ranks after ``batch_index`` batches.

        Matches the paper's x-axis of Figure 5: ``n_s = n_b * b * n_GPU``.
        """
        world = self.comm.size if self.comm is not None else 1
        return batch_index * self.config.batch_size * world
