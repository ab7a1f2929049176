"""Study drivers: run a full online or offline training campaign.

``OnlineStudy`` reproduces the paper's workflow end to end: the launcher runs
the ensemble of solver clients (in series, with bounded concurrency), each
client streams its time steps to the training server, and the server's
aggregator/training threads train the surrogate concurrently with data
generation.  ``OfflineStudy`` is the baseline: generate (or reuse) a file
dataset, then train epoch by epoch from disk through the same training loop,
with a dataloader in place of the buffer.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.client.simulation_client import SimulationClient
from repro.core.config import OfflineStudyConfig, OnlineStudyConfig
from repro.core.heat_usecase import HeatSurrogateCase
from repro.core.metrics import TrainingMetrics, merge_worker_metrics
from repro.core.results import OfflineStudyResult, OnlineStudyResult
from repro.launcher.launcher import ClientSpec, Launcher, LauncherConfig
from repro.offline.dataloader import DataLoader
from repro.offline.dataset import SimulationDataset
from repro.offline.storage import SimulationStore
from repro.parallel.communicator import ThreadCommunicator
from repro.parallel.spmd import SPMDExecutor
from repro.parallel.transport import Transport, make_transport
from repro.server.server import ServerConfig, TrainingServer
from repro.server.sharding import ShardManager
from repro.server.trainer import TrainingWorker, build_worker
from repro.server.validation import ValidationSet

Array = np.ndarray

#: Adam's initial learning rate in the offline baseline (the paper's 1e-3).
OFFLINE_LEARNING_RATE = 1e-3


class OnlineStudy:
    """Online (streaming) surrogate-training study for a use case."""

    def __init__(
        self,
        case: HeatSurrogateCase,
        config: OnlineStudyConfig,
        validation: Optional[ValidationSet] = None,
    ) -> None:
        self.case = case
        self.config = config
        self.validation = validation

    # ------------------------------------------------------------------ build
    def _build_specs(self) -> list[ClientSpec]:
        parameters = self.case.sample_parameters(self.config.num_simulations)
        return [
            ClientSpec(
                client_id=index,
                parameters=np.asarray(row),
                solver_params=self.case.parameters_to_solver(row),
            )
            for index, row in enumerate(parameters)
        ]

    def _server_config(self) -> ServerConfig:
        cfg = self.config
        return ServerConfig(
            num_ranks=cfg.num_ranks,
            buffer_kind=cfg.buffer_kind,
            buffer_capacity=cfg.buffer_capacity,
            buffer_threshold=cfg.buffer_threshold,
            expected_clients=cfg.num_simulations,
            trainer=cfg.trainer_config(),
            learning_rate=cfg.learning_rate,
            lr_step_batches=cfg.lr_step_batches,
            seed=cfg.seed,
        )

    def _build_server(self, router: Transport) -> TrainingServer:
        return TrainingServer(
            config=self._server_config(),
            model_factory=self.case.model_factory,
            router=router,
            validation=self.validation,
        )

    def _build_shard_manager(self, specs: Sequence[ClientSpec]) -> ShardManager:
        cfg = self.config
        return ShardManager(
            server_config=self._server_config(),
            transport_config=cfg.transport_config,
            model_factory=self.case.model_factory,
            client_ids=[spec.client_id for spec in specs],
            validation=self.validation,
            max_concurrent_clients=cfg.max_concurrent_clients,
        )

    def _build_launcher(self, router: Transport, specs: Sequence[ClientSpec],
                        heartbeat_monitor: object) -> Launcher:
        cfg = self.config
        solver_steps = self.case.solver_config.num_steps
        # The members differ only in their parameters, never in the operator:
        # one solver serves the study, shared by thread clients and inherited
        # by the spawner and its forked clients.
        solver = self.case.solver_factory()

        def client_factory(spec: ClientSpec) -> SimulationClient:
            return SimulationClient(
                client_id=spec.client_id,
                parameters=tuple(float(p) for p in np.asarray(spec.parameters).ravel()),
                solver=solver,
                router=router,
                num_time_steps=solver_steps,
                step_delay=cfg.client_step_delay,
                send_batch_size=cfg.transport_config.batch_size,
            )

        launcher_config = LauncherConfig(
            series_sizes=cfg.series_sizes,
            max_concurrent_clients=cfg.max_concurrent_clients,
            inter_series_delay=cfg.inter_series_delay,
            client_mode=cfg.transport_config.client_mode,
            process_join_timeout=cfg.transport_config.process_timeout,
            heartbeat_timeout=cfg.transport_config.heartbeat_timeout,
        )
        # The server's aggregators feed the heartbeat monitor; handing it to
        # the launcher closes the paper's loop: the server watches for
        # unresponsive clients, the launcher kills and restarts them.  In a
        # sharded study the monitor and the clients' transport both route by
        # the hash ring, so the same protocol spans every shard.
        return Launcher(client_factory, specs, launcher_config,
                        heartbeat_monitor=heartbeat_monitor)

    # -------------------------------------------------------------------- run
    def run(self) -> OnlineStudyResult:
        """Run the full online study (blocking) and return its result.
        Raises the server's exception, else the transport's failure."""
        cfg = self.config
        # ``transport_config`` is the already-normalised TransportConfig.  Only
        # the launcher concurrency bound travels separately: the shm ring grid is
        # a slot table sized by it, not by the ensemble size — the launcher
        # leases a client's ring before the client is forked and releases it
        # after the client's last process was reaped.
        num_shards = cfg.transport_config.shard.num_shards
        specs = self._build_specs()
        if num_shards > 1:
            # Sharded tier: one transport endpoint + server per shard, the
            # hash ring routing each client at connect; the manager merges
            # the per-shard results back into one ServerResult.
            manager = self._build_shard_manager(specs)
            router: Transport = manager.router
            runner = manager
            heartbeat_monitor = manager.heartbeat_monitor
        else:
            router = make_transport(
                cfg.transport_config,
                cfg.num_ranks,
                max_concurrent_clients=cfg.max_concurrent_clients,
            )
            server = self._build_server(router)
            runner = server
            heartbeat_monitor = server.heartbeat_monitor
        launcher = self._build_launcher(router, specs, heartbeat_monitor)

        start = time.monotonic()
        try:
            launcher.start()
            server_result = runner.run()
            launcher_report = launcher.join()
            elapsed = time.monotonic() - start
        finally:
            router.shutdown()
            if launcher.running:  # the server failed: the closed router stops the launcher
                launcher.join()
        if router.failure is not None:
            raise router.failure

        unique_samples = cfg.num_simulations * self.case.solver_config.num_steps
        dataset_bytes = unique_samples * self.case.field_size * 4
        return OnlineStudyResult(
            server=server_result,
            launcher=launcher_report,
            total_elapsed=elapsed,
            unique_samples=unique_samples,
            dataset_bytes=dataset_bytes,
        )


class OfflineStudy:
    """Offline baseline: generate a dataset on disk, then train for several epochs."""

    def __init__(
        self,
        case: HeatSurrogateCase,
        config: OfflineStudyConfig,
        validation: Optional[ValidationSet] = None,
        store: Optional[SimulationStore] = None,
    ) -> None:
        self.case = case
        self.config = config
        self.validation = validation
        self._store = store

    def generate(self) -> tuple[SimulationStore, float]:
        """Generate (or reuse) the on-disk dataset; returns (store, seconds)."""
        if self._store is not None:
            return self._store, 0.0
        directory = self.config.store_dir or Path(tempfile.mkdtemp(prefix="repro-offline-"))
        start = time.monotonic()
        store = self.case.generate_store(directory, self.config.num_simulations)
        elapsed = time.monotonic() - start
        self._store = store
        return store, elapsed

    def run(self) -> OfflineStudyResult:
        """Generate the dataset if needed, train, and return the result.

        Every rank is set up by :func:`build_worker` and runs the online
        training loop; its data source is a :class:`DataLoader` over its shard
        of the dataset instead of a training buffer.
        """
        cfg = self.config
        store, generation_elapsed = self.generate()
        dataset = SimulationDataset(store)
        trainer_config = cfg.trainer_config()
        workers: list[Optional[TrainingWorker]] = [None] * cfg.num_ranks

        def rank_main(comm: ThreadCommunicator) -> TrainingMetrics:
            loader = DataLoader(
                dataset,
                num_epochs=cfg.num_epochs,
                seed=cfg.seed,
                rank=comm.rank,
                world_size=comm.size,
                io_delay_per_sample=cfg.io_delay_per_sample,
            )
            worker = build_worker(
                comm,
                self.case.model_factory,
                loader,
                trainer_config,
                learning_rate=OFFLINE_LEARNING_RATE,
                lr_step_batches=cfg.lr_step_batches,
                validation=self.validation,
            )
            workers[comm.rank] = worker
            return worker.run()

        start = time.monotonic()
        per_rank = SPMDExecutor(cfg.num_ranks, timeout=None).run(rank_main)
        training_elapsed = time.monotonic() - start
        rank0_worker = workers[0]
        assert rank0_worker is not None
        return OfflineStudyResult(
            model=rank0_worker.model,
            per_rank_metrics=per_rank,
            summary=merge_worker_metrics(per_rank),
            generation_elapsed=generation_elapsed,
            training_elapsed=training_elapsed,
            unique_samples=len(dataset),
            dataset_bytes=store.total_bytes,
            store_dir=str(store.directory),
        )
