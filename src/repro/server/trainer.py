"""Training thread of a rank, online or offline.

The training thread embeds a classical supervised loop whose only difference
between the online study and the offline baseline is the data source: online,
batches come from the training buffer filled concurrently by the
data-aggregator thread; offline, from the :class:`repro.offline.DataLoader`,
which answers the buffer's consumer call ``get_batch_columns(n, timeout)``.
:func:`build_worker` sets up a rank the same way for both.  With several ranks
the workers synchronise gradients after every batch (synchronous
data-parallel training) and agree collectively on when to stop: training
terminates once any rank's source is exhausted (reception over and buffer
empty, or the last epoch read), which is the paper's termination condition
applied to the data-parallel case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.buffers.columns import ColumnBatch
from repro.buffers.stats import OccurrenceTracker
from repro.core.metrics import TrainingMetrics
from repro.nn.losses import MSELoss
from repro.nn.module import Module
from repro.nn.optim import Adam, Optimizer
from repro.nn.schedulers import LRScheduler, StepLR
from repro.parallel.communicator import ThreadCommunicator
from repro.server.ddp import all_ranks_have_data, broadcast_parameters, sync_gradients
from repro.server.validation import ValidationSet, Validator
from repro.utils.timing import WallClock

if TYPE_CHECKING:
    from repro.buffers.base import TrainingBuffer
    from repro.offline.dataloader import DataLoader

Array = np.ndarray

#: Seconds a rank waits for one batch before it gives up on its source.
GET_TIMEOUT = 60.0


@dataclass
class TrainerConfig:
    """Hyper-parameters of the training loop (online and offline).

    Attributes mirror the paper's experimental setup: batch size 10, initial
    learning rate 1e-3 halved on a fixed schedule, validation every 100
    batches, throughput measured over 10-batch windows.

    ``record_population`` samples the buffer's ``snapshot()`` after every
    batch; the offline baseline turns it off, its loader having no buffer.
    """

    batch_size: int = 10
    validation_interval: int = 100
    max_batches: Optional[int] = None
    record_population: bool = True
    #: Optional sleep per batch emulating the GPU compute cost of the paper's
    #: 514M-parameter surrogate (the scaled-down model trains much faster than
    #: the real one, which would distort the production/consumption balance).
    batch_compute_delay: float = 0.0


class TrainingWorker:
    """One rank's training thread (model replica + optimizer + data source).

    ``buffer`` is the data source: a training buffer online, a
    :class:`DataLoader` offline.  The loop only calls its
    ``get_batch_columns``, plus ``snapshot()`` when ``record_population`` is on.
    """

    def __init__(
        self,
        rank: int,
        model: Module,
        optimizer: Optimizer,
        buffer: TrainingBuffer | DataLoader,
        config: TrainerConfig,
        scheduler: Optional[LRScheduler] = None,
        validator: Optional[Validator] = None,
        comm: Optional[ThreadCommunicator] = None,
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
        self.metrics = TrainingMetrics(rank=self.rank)
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
        """Run the training loop until the source is exhausted (or max_batches)."""
        start = self._clock.now()
        if self.comm is not None and self.comm.size > 1:
            broadcast_parameters(self.model, self.comm, root=0)

        batch_index = 0
        while True:
            if self.config.max_batches is not None and batch_index >= self.config.max_batches:
                # Still participate in one last collective so peers don't hang.
                self._collective_continue(False)
                break
            batch = self.buffer.get_batch_columns(self.config.batch_size, timeout=GET_TIMEOUT)
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
            self.metrics.losses.record_train(loss_value)
            self.metrics.throughput.record_batch(len(batch))

            self.occurrences.record_columns(batch.source_ids, batch.time_steps)
            if self.config.record_population:
                self.metrics.buffer_population.record(
                    self._clock.now() - start, self.buffer.snapshot()["size"]
                )

            if (
                self.validator is not None
                and self.config.validation_interval > 0
                and batch_index % self.config.validation_interval == 0
                and self.rank == 0
            ):
                val_loss = self.validator.evaluate(self.model)
                self.metrics.losses.record_validation(val_loss)

            if not keep_going:
                break

        # Final validation so every run reports an end-of-training MSE.
        if self.validator is not None and self.rank == 0:
            val_loss = self.validator.evaluate(self.model)
            self.metrics.losses.record_validation(val_loss)

        self.metrics.occurrence_histogram = self.occurrences.histogram()
        self.metrics.wall_time = self._clock.now() - start
        return self.metrics


def build_worker(
    comm: ThreadCommunicator,
    model_factory: Callable[[], Module],
    buffer: TrainingBuffer | DataLoader,
    config: TrainerConfig,
    *,
    learning_rate: float,
    lr_step_batches: int,
    validation: Optional[ValidationSet] = None,
) -> TrainingWorker:
    """Set up the rank ``comm.rank`` of an online server or an offline study.

    A fresh model replica (the factory's seed makes replicas identical, and
    :meth:`TrainingWorker.run` broadcasts rank 0's weights anyway), Adam,
    the paper's StepLR schedule when ``lr_step_batches > 0`` and a validator when a validation set
    is given (only rank 0 evaluates).  The gradient collective is used only
    with several ranks.
    """
    model = model_factory()
    optimizer = Adam(model.parameters(), lr=learning_rate)
    scheduler = None
    if lr_step_batches > 0:
        scheduler = StepLR(optimizer, step_size=lr_step_batches)
    return TrainingWorker(
        rank=comm.rank,
        model=model,
        optimizer=optimizer,
        buffer=buffer,
        config=config,
        scheduler=scheduler,
        validator=Validator(validation) if validation is not None else None,
        comm=comm if comm.size > 1 else None,
    )
