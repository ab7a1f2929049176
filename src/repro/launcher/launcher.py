"""The launcher: runs the ensemble of simulation clients.

The paper's launcher interacts with the batch scheduler to start client jobs,
monitor them, kill unresponsive ones and restart failed ones.  Here client
"jobs" are Python callables executed on a bounded thread pool; the launcher
preserves the orchestration logic that matters for the experiments:

* **series submission**: clients are started in successive series (the paper
  uses 100/100/50 concurrent simulations), the next series starting only once
  the previous one completed — the cause of the production stalls visible in
  Figure 2;
* **bounded concurrency** inside a series (the "c concurrent clients" of the
  inter-simulation bias discussion);
* **fault tolerance**: a client raising an exception is restarted (up to a
  configurable number of attempts); restarted clients resend data which the
  server deduplicates through its message log.

With ``client_mode="process"`` each client runs in a forked OS process (the
paper's real deployment shape) instead of a pool thread: the process streams
through a multi-process transport backend, reports its step count over a
pipe, and a dead or killed process is restarted like a failed one — the
restarted client resends from step zero and the server deduplicates.  The
transport crosses the fork by reference but its live channels do not need
to: the ``tcp`` backend's forked clients inherit only the front door's
``(host, port)`` and dial their own connection (handshake included) at the
first push, so the same launcher drives shared-memory and socket backends
(the study picks the mode via ``TransportConfig.client_mode``).
"""

from __future__ import annotations

import multiprocessing as _std_mp
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.client.simulation_client import SimulationClient, SimulationFailure
from repro.utils.logging import get_logger

logger = get_logger("launcher")

Array = np.ndarray

_fork_context = None


def _fork_mp():
    """The ``fork`` multiprocessing context, resolved lazily.

    Clients are forked, not spawned: the client factory closes over solver
    and transport objects that are inherited through fork without pickling.
    Resolving lazily keeps thread-mode studies importable on platforms
    without the fork start method (Windows); only ``client_mode="process"``
    requires it.
    """
    global _fork_context
    if _fork_context is None:
        try:
            _fork_context = _std_mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "client_mode='process' requires the 'fork' multiprocessing start "
                "method, which this platform does not provide"
            ) from exc
    return _fork_context


_noise_filter_installed = False


def _install_after_fork_noise_filter() -> None:
    """Silence a harmless CPython 3.11.7 artifact in forked clients.

    Forking a thread-heavy parent leaves a stale C-level exception in the
    child, so the first statement of ``threading._after_fork`` reports
    ``SystemError: ... returned a result with an exception set`` through
    ``sys.unraisablehook`` (the lock is created and the child runs
    correctly).  The hook is inherited through fork, so installing the
    filter in the parent suppresses exactly that report in every client
    process while delegating all other unraisables unchanged.
    """
    global _noise_filter_installed
    if _noise_filter_installed:
        return
    _noise_filter_installed = True
    import sys
    import threading

    previous = sys.unraisablehook

    def hook(unraisable, /):
        if (unraisable.exc_type is SystemError
                and getattr(unraisable.object, "__name__", "") == "_after_fork"
                and getattr(unraisable.object, "__module__", "") == threading.__name__):
            return
        previous(unraisable)

    sys.unraisablehook = hook


def _client_process_main(client: SimulationClient, solver_params: object, conn) -> None:
    """Entry point of a forked client process: run, report the outcome."""
    status, steps = "error", 0
    try:
        result = client.run(solver_params=solver_params)
        status, steps = "ok", result.steps_sent
    except SimulationFailure:
        status = "failed"
    except BaseException:  # noqa: BLE001 - report then exit, parent decides
        logger.exception("client %d process crashed", client.client_id)
    try:
        conn.send((status, steps))
        conn.close()
    except OSError:  # pragma: no cover - parent already gone
        pass


@dataclass
class ClientSpec:
    """Description of one ensemble member to run."""

    client_id: int
    parameters: Array
    solver_params: object | None = None
    fail_at_step: Optional[int] = None
    #: Fault injection: hang (stop sending, stay alive) after this many
    #: steps — the failure mode the heartbeat watchdog exists to catch.
    hang_at_step: Optional[int] = None


@dataclass
class LauncherConfig:
    """Launcher behaviour.

    Attributes
    ----------
    series_sizes:
        Number of clients in each successive series; the remaining clients (if
        the sizes do not cover all specs) form a final series.  ``None`` runs
        everything as a single series.
    max_concurrent_clients:
        Thread-pool width: how many clients execute simultaneously inside a
        series (models the finite CPU partition).
    inter_series_delay:
        Seconds to wait between the end of a series and the start of the next,
        reproducing the scheduling gap observed on the real machine.
    max_restarts:
        How many times a failing client is restarted before giving up.
    client_mode:
        ``"thread"`` runs clients on the pool threads; ``"process"`` forks one
        OS process per client attempt (real transport isolation; a study takes
        the mode from its backend's ``TransportConfig.client_mode``).
    process_join_timeout:
        In process mode, how long to wait for a client process before killing
        it and treating it as failed (``None`` waits forever).  This caps a
        client's *total runtime*; liveness is the heartbeat deadline below.
    heartbeat_timeout:
        In process mode, kill a client process whose last server-observed
        activity (hello/time step/heartbeat, tracked by the study's
        :class:`~repro.server.fault.HeartbeatMonitor`) is older than this
        many seconds — the paper's "watch for unresponsive clients, ask the
        launcher to properly kill and restart" protocol.  The killed client
        is restarted like a failed one (the server deduplicates the resend)
        and the kill is counted in ``TransportStats.unresponsive_kills``.
        ``None`` disables the watchdog.
    """

    series_sizes: Optional[Sequence[int]] = None
    max_concurrent_clients: int = 8
    inter_series_delay: float = 0.0
    max_restarts: int = 2
    client_mode: str = "thread"
    process_join_timeout: Optional[float] = None
    heartbeat_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_concurrent_clients <= 0:
            raise ValueError("max_concurrent_clients must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.client_mode not in ("thread", "process"):
            raise ValueError("client_mode must be 'thread' or 'process'")
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive or None")


@dataclass
class LauncherReport:
    """Outcome of the ensemble execution."""

    clients_completed: int = 0
    clients_failed: int = 0
    restarts: int = 0
    unresponsive_kills: int = 0
    series_boundaries: List[float] = field(default_factory=list)
    elapsed: float = 0.0
    per_client_steps: Dict[int, int] = field(default_factory=dict)
    #: Cluster-level breakdown of a sharded study: steps and completed
    #: clients per shard, keyed by shard index (empty when unsharded).
    per_shard_steps: Dict[int, int] = field(default_factory=dict)
    per_shard_clients: Dict[int, int] = field(default_factory=dict)

    @property
    def total_steps_sent(self) -> int:
        return int(sum(self.per_client_steps.values()))


class Launcher:
    """Run all ensemble members through a client factory, series by series."""

    def __init__(
        self,
        client_factory: Callable[[ClientSpec], SimulationClient],
        specs: Sequence[ClientSpec],
        config: LauncherConfig | None = None,
        heartbeat_monitor: object | None = None,
        transport: object | None = None,
        shard_ring: object | None = None,
    ) -> None:
        self.client_factory = client_factory
        self.specs = list(specs)
        self.config = config or LauncherConfig()
        #: Liveness tracker shared with the server (fed by its aggregators);
        #: required for the heartbeat watchdog in process client mode.
        self.heartbeat_monitor = heartbeat_monitor
        #: Transport backend, for kill accounting
        #: (``record_unresponsive_kill``) and for recycling a dead client's
        #: ring-slot lease (``release_client``) when restarts are exhausted.
        self.transport = transport
        #: Hash ring of a sharded study (``shard_for(client_id)``); when
        #: present, the report also aggregates per-shard totals so the
        #: cluster-level breakdown ships with the ensemble outcome.
        self.shard_ring = shard_ring
        self.report = LauncherReport()
        #: Guards every ``self.report`` mutation: restart and kill counters
        #: are incremented from concurrent pool threads, and ``+=`` on a
        #: shared attribute is not atomic — unguarded increments lose counts.
        self._report_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._started = False

    # ----------------------------------------------------------------- series
    def _split_series(self) -> List[List[ClientSpec]]:
        sizes = self.config.series_sizes
        if not sizes:
            return [self.specs]
        series: List[List[ClientSpec]] = []
        cursor = 0
        for size in sizes:
            if cursor >= len(self.specs):
                break
            series.append(self.specs[cursor : cursor + size])
            cursor += size
        if cursor < len(self.specs):
            series.append(self.specs[cursor:])
        return series

    # ------------------------------------------------------------------- run
    def _run_client(self, spec: ClientSpec) -> int:
        """Run one client with restart-on-failure; returns steps sent."""
        if self.config.client_mode == "process":
            return self._run_client_in_process(spec)
        client = self.client_factory(spec)
        if spec.fail_at_step is not None:
            client.fail_at_step = spec.fail_at_step
        attempts = 0
        total_steps = 0
        while True:
            try:
                result = client.run(solver_params=spec.solver_params)
                total_steps += result.steps_sent
                return total_steps
            except SimulationFailure as exc:
                attempts += 1
                with self._report_lock:
                    self.report.restarts += 1
                logger.warning("client %d failed (%s), restart %d", spec.client_id, exc, attempts)
                if attempts > self.config.max_restarts:
                    raise
                client.prepare_restart()

    def _run_client_in_process(self, spec: ClientSpec) -> int:
        """Fork one OS process per attempt; restart on failure or death.

        The parent keeps its own copy of the client object: a restart
        increments ``restart_count`` and clears the injected fault, but the
        child's in-memory checkpoint dies with the process, so the restarted
        client resends everything and relies on the server's message log for
        deduplication — the non-checkpointed recovery path of the paper.
        """
        context = _fork_mp()
        _install_after_fork_noise_filter()
        client = self.client_factory(spec)
        if spec.fail_at_step is not None:
            client.fail_at_step = spec.fail_at_step
        if spec.hang_at_step is not None:
            client.hang_at_step = spec.hang_at_step
        attempts = 0
        while True:
            recv_conn, send_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_client_process_main,
                args=(client, spec.solver_params, send_conn),
                name=f"client-{spec.client_id}",
                daemon=True,
            )
            process.start()
            send_conn.close()
            self._watch_client_process(spec, process)
            status, steps = "killed", 0
            if recv_conn.poll(0):
                try:
                    status, steps = recv_conn.recv()
                except EOFError:
                    # A killed child closes the pipe without sending: poll()
                    # reports the EOF as readable, but there is no result.
                    pass
            recv_conn.close()
            if status == "ok":
                return steps
            if status == "error":
                raise SimulationFailure(
                    f"client {spec.client_id} process crashed (exit code {process.exitcode})"
                )
            attempts += 1
            with self._report_lock:
                self.report.restarts += 1
            logger.warning(
                "client %d process %s (exit code %s), restart %d",
                spec.client_id, status, process.exitcode, attempts,
            )
            if attempts > self.config.max_restarts:
                raise SimulationFailure(
                    f"client {spec.client_id} exhausted its {self.config.max_restarts} restarts"
                )
            client.prepare_restart()

    def _watch_client_process(self, spec: ClientSpec, process) -> None:
        """Join a client process under the runtime cap and heartbeat deadline.

        Blocks until the process exits or is killed.  Two guards run while
        waiting: ``process_join_timeout`` caps the total runtime, and
        ``heartbeat_timeout`` kills a client whose last server-observed
        activity (queried from the shared :class:`HeartbeatMonitor`) is too
        old — a client that was never observed is judged by its runtime
        instead, so a hang before the hello message is caught too.  A
        heartbeat kill is counted in the report and in
        ``TransportStats.unresponsive_kills``; the caller then restarts the
        client like any failed one and the server deduplicates the resend.
        """
        heartbeat_timeout = self.config.heartbeat_timeout
        if self.heartbeat_monitor is None:
            heartbeat_timeout = None
        runtime_cap = self.config.process_join_timeout
        if heartbeat_timeout is None and runtime_cap is None:
            process.join()
            return
        poll = 0.25
        if heartbeat_timeout is not None:
            poll = min(poll, heartbeat_timeout / 4)
        started = time.monotonic()
        deadline = None if runtime_cap is None else started + runtime_cap
        while True:
            process.join(poll)
            if not process.is_alive():
                return
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                logger.warning("client %d exceeded its runtime cap, killing process",
                    spec.client_id)
                break
            if heartbeat_timeout is not None:
                if self.heartbeat_monitor.is_finished(spec.client_id):
                    continue  # done, just tearing down: never heartbeat-kill
                silence = self.heartbeat_monitor.silence(spec.client_id, now=now)
                if silence is None:
                    # Never seen: judge by this attempt's runtime, with a 2x
                    # grace — the client may legitimately be waiting for a
                    # ring-slot lease or a slow solver warm-up before its
                    # first message reaches the server.
                    silence = (now - started) / 2
                else:
                    # A restarted attempt inherits the monitor record of its
                    # dead predecessor; activity cannot predate this attempt.
                    silence = min(silence, now - started)
                if silence > heartbeat_timeout:
                    logger.warning(
                        "client %d missed its heartbeat deadline (silent %.1fs), "
                        "killing process", spec.client_id, silence,
                    )
                    with self._report_lock:
                        self.report.unresponsive_kills += 1
                    recorder = getattr(self.transport, "record_unresponsive_kill", None)
                    if recorder is not None:
                        recorder()
                    break
        process.kill()
        process.join()

    def run(self) -> LauncherReport:
        """Execute every series and return the report (blocking)."""
        start = time.monotonic()
        series = self._split_series()
        for index, group in enumerate(series):
            if index > 0 and self.config.inter_series_delay > 0:
                time.sleep(self.config.inter_series_delay)
            with self._report_lock:
                self.report.series_boundaries.append(time.monotonic() - start)
            with ThreadPoolExecutor(
                max_workers=self.config.max_concurrent_clients,
                thread_name_prefix=f"client-series-{index}",
            ) as pool:
                futures = {pool.submit(self._run_client, spec): spec for spec in group}
                for future in as_completed(futures):
                    spec = futures[future]
                    try:
                        steps = future.result()
                    except Exception:  # noqa: BLE001 - client exhausted its restarts
                        with self._report_lock:
                            self.report.clients_failed += 1
                        logger.error("client %d permanently failed", spec.client_id)
                        # Recycle the dead client's ring-slot lease so a
                        # later ensemble member is not starved by it.
                        release = getattr(self.transport, "release_client", None)
                        if release is not None:
                            release(spec.client_id)
                    else:
                        with self._report_lock:
                            self.report.clients_completed += 1
                            self.report.per_client_steps[spec.client_id] = steps
        self._aggregate_shard_totals()
        with self._report_lock:
            self.report.elapsed = time.monotonic() - start
        return self.report

    def _aggregate_shard_totals(self) -> None:
        """Fold per-client steps into per-shard totals (sharded studies only)."""
        if self.shard_ring is None:
            return
        shard_for = self.shard_ring.shard_for
        with self._report_lock:
            per_client = dict(self.report.per_client_steps)
        per_shard_steps: Dict[int, int] = {}
        per_shard_clients: Dict[int, int] = {}
        for client_id, steps in per_client.items():
            shard = int(shard_for(client_id))
            per_shard_steps[shard] = per_shard_steps.get(shard, 0) + int(steps)
            per_shard_clients[shard] = per_shard_clients.get(shard, 0) + 1
        with self._report_lock:
            self.report.per_shard_steps = per_shard_steps
            self.report.per_shard_clients = per_shard_clients

    # ---------------------------------------------------------- async control
    def start(self) -> None:
        """Run the ensemble on a background thread (non-blocking)."""
        if self._started:
            raise RuntimeError("launcher already started")
        self._started = True
        self._thread = threading.Thread(target=self.run, name="launcher", daemon=True)
        self._thread.start()

    def join(self, timeout: Optional[float] = None) -> LauncherReport:
        """Wait for a background run started with :meth:`start`."""
        if self._thread is None:
            raise RuntimeError("launcher was not started")
        self._thread.join(timeout=timeout)
        return self.report

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()
