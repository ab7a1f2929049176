"""The training server: aggregator threads + data-parallel training workers.

A :class:`TrainingServer` owns one training buffer, one data-aggregator thread
and one training worker per server rank ("per GPU").  ``run`` blocks until the
training terminates (all clients finished and buffers drained, or the batch
budget is reached) and returns a :class:`ServerResult` with the trained model
and every recorded metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.buffers import make_buffer
from repro.buffers.base import TrainingBuffer
from repro.core.metrics import TrainingMetrics, merge_worker_metrics, throughput_from_summary
from repro.nn.module import Module
from repro.parallel.communicator import ThreadCommunicator
from repro.parallel.spmd import SPMDExecutor
from repro.parallel.transport import Transport, TransportStats
from repro.server.aggregator import DataAggregator
from repro.server.fault import HeartbeatMonitor, MessageLog
from repro.server.trainer import TrainerConfig, TrainingWorker, build_worker
from repro.server.validation import ValidationSet


@dataclass
class ServerConfig:
    """Configuration of the training server.

    Attributes
    ----------
    num_ranks:
        Number of server ranks; the paper maps one rank to one GPU.
    buffer_kind:
        "fifo", "firo" or "reservoir".
    buffer_capacity, buffer_threshold:
        Per-rank buffer parameters (the paper uses 6 000 / 1 000 at full scale).
    expected_clients:
        Number of ensemble members whose completion ends data reception.
        ``0`` is a valid (idle) configuration: a shard of the sharded
        serving tier to which the hash ring assigned no clients completes
        reception immediately and drains an empty buffer.
    learning_rate:
        Initial learning rate of Adam (paper: 1e-3).
    lr_step_batches:
        Halve the learning rate every that many *batches per rank*; the paper
        scales this with the number of GPUs so the schedule follows the number
        of samples seen (:class:`repro.nn.schedulers.StepLR`).
    seed:
        Seed shared by every replica so their initial weights are identical.
    """

    num_ranks: int = 1
    buffer_kind: str = "reservoir"
    buffer_capacity: int = 6_000
    buffer_threshold: int = 1_000
    expected_clients: int = 1
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    learning_rate: float = 1e-3
    lr_step_batches: int = 1_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        if self.expected_clients < 0:
            raise ValueError("expected_clients must be non-negative")


@dataclass
class ServerResult:
    """Everything produced by one server run."""

    model: Module
    per_rank_metrics: List[TrainingMetrics]
    aggregator_stats: List[object]
    buffer_snapshots: List[dict]
    transport_stats: TransportStats
    summary: Dict[str, float]
    duplicates_discarded: int = 0

    @property
    def metrics(self) -> TrainingMetrics:
        """Rank-0 metrics (losses are identical across ranks after all-reduce)."""
        return self.per_rank_metrics[0]

    @property
    def best_validation_loss(self) -> float:
        return self.metrics.losses.best_validation_loss

    @property
    def total_throughput(self) -> float:
        """Samples/second summed across all server ranks."""
        return throughput_from_summary(self.summary)

    @property
    def unresponsive_kills(self) -> int:
        """Clients the launcher killed for missing their heartbeat deadline."""
        return self.transport_stats.unresponsive_kills


class TrainingServer:
    """Drives aggregation and data-parallel training for one online study."""

    def __init__(
        self,
        config: ServerConfig,
        model_factory: Callable[[], Module],
        router: Transport,
        validation: Optional[ValidationSet] = None,
    ) -> None:
        self.config = config
        self.model_factory = model_factory
        self.router = router
        self.validation = validation

        self.heartbeat_monitor = HeartbeatMonitor()
        self.buffers: List[TrainingBuffer] = [
            make_buffer(
                config.buffer_kind,
                capacity=config.buffer_capacity,
                threshold=config.buffer_threshold,
                seed=config.seed + rank,
            )
            for rank in range(config.num_ranks)
        ]
        self.message_logs = [MessageLog() for _ in range(config.num_ranks)]
        self.aggregators = [
            DataAggregator(
                rank=rank,
                router=router,
                buffer=self.buffers[rank],
                expected_clients=config.expected_clients,
                heartbeat_monitor=self.heartbeat_monitor,
                message_log=self.message_logs[rank],
            )
            for rank in range(config.num_ranks)
        ]

    # -------------------------------------------------------------------- run
    def run(self) -> ServerResult:
        """Start aggregators and training workers; block until training ends.
        Raises a rank's :class:`SPMDFailure`, else the transport's failure."""
        for aggregator in self.aggregators:
            aggregator.start()

        config = self.config
        workers: List[Optional[TrainingWorker]] = [None] * config.num_ranks

        def rank_main(comm: ThreadCommunicator) -> TrainingMetrics:
            try:
                worker = build_worker(
                    comm,
                    self.model_factory,
                    self.buffers[comm.rank],
                    config.trainer,
                    learning_rate=config.learning_rate,
                    lr_step_batches=config.lr_step_batches,
                    validation=self.validation,
                )
                workers[comm.rank] = worker
                return worker.run()
            except BaseException as exc:  # noqa: BLE001 - thread boundary
                self.router.fail(exc)
                raise

        try:
            executor = SPMDExecutor(self.config.num_ranks, timeout=None)
            per_rank = executor.run(rank_main)
        finally:
            for buffer in self.buffers:
                buffer.close()
            for aggregator in self.aggregators:
                aggregator.stop()
        if self.router.failure is not None:
            raise self.router.failure

        rank0_worker = workers[0]
        assert rank0_worker is not None
        summary = merge_worker_metrics(per_rank)
        duplicates = sum(log.duplicates_discarded for log in self.message_logs)
        return ServerResult(
            model=rank0_worker.model,
            per_rank_metrics=per_rank,
            aggregator_stats=[agg.stats for agg in self.aggregators],
            buffer_snapshots=[buffer.snapshot() for buffer in self.buffers],
            transport_stats=self.router.stats,
            summary=summary,
            duplicates_discarded=duplicates,
        )
