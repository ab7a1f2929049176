"""The launcher: runs the ensemble of simulation clients.

The paper's launcher interacts with the batch scheduler to start client jobs,
monitor them, kill unresponsive ones and restart failed ones.  Here the
launcher preserves the orchestration logic that matters for the experiments:

* **series submission**: clients are started in successive series (the paper
  uses 100/100/50 concurrent simulations), the next series starting only once
  the previous one completed — the cause of the production stalls visible in
  Figure 2;
* **bounded concurrency** inside a series (the "c concurrent clients" of the
  inter-simulation bias discussion);
* **fault tolerance**: a failed client is restarted (up to a configurable
  number of attempts); restarted clients resend data which the server
  deduplicates through its message log.

With ``client_mode="thread"`` clients run on a bounded thread pool.  With
``client_mode="process"`` every client attempt is an OS process that shares
nothing with the server, as a client job in the paper: :meth:`Launcher.start`
(or :meth:`Launcher.run`) forks one :class:`~repro.launcher.spawner.ClientSpawner`
before any launcher or server thread exists, and each attempt is one request
to it, carrying the attempt state of the launcher's copy of the client and
its lease slot.  One loop over the spawner's reports and the watchdog
deadlines runs a series: a client past a deadline is killed by pid, a failed
or killed one is restarted from step zero (the server deduplicates the
resend), and if the spawner dies every unfinished client fails.

A closed transport stops the launcher: a study shuts its transport once its
server returned or raised, and a failed server leaves clients unfinished.  No
client starts or restarts on a closed transport, the clients a process-mode
series still runs are killed, and every unfinished client fails.  Any other
exception fails the study through the transport (:meth:`Transport.fail`), as
do clients that failed for good once a run :meth:`start` began has ended.

The launcher holds each client's channel lease: ``Transport.lease_client``
before the first attempt, ``release_client`` once the last one was reaped.
At most ``max_concurrent_clients`` clients run at once, the bound that sizes
the ``shm`` slot table, so a lease never waits; a forked client finds its
ring slot in the table it inherited and shares nothing it could die holding.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.client.simulation_client import SimulationClient, SimulationFailure
from repro.launcher.spawner import ClientSpawner
from repro.parallel.transport import RouterClosed
from repro.utils.logging import get_logger

logger = get_logger("launcher")

Array = np.ndarray


@dataclass
class ClientSpec:
    """Description of one ensemble member to run."""

    client_id: int
    parameters: Array
    solver_params: object | None = None
    fail_at_step: Optional[int] = None


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
        How many clients execute simultaneously inside a series (models the
        finite CPU partition).
    inter_series_delay:
        Seconds to wait between the end of a series and the start of the next,
        reproducing the scheduling gap observed on the real machine.
    max_restarts:
        How many times a failing client is restarted before giving up.
    client_mode:
        ``"thread"`` runs clients on pool threads; ``"process"`` runs each
        client attempt as an OS process forked by the client spawner (real
        transport isolation; a study takes the mode from its backend's
        ``TransportConfig.client_mode``).
    process_join_timeout:
        In process mode, how long to wait for a client process before killing
        it and treating it as failed (``None`` waits forever).  This caps a
        client's *total runtime*; liveness is the heartbeat deadline below.
    heartbeat_timeout:
        In process mode, kill a client process whose last server-observed
        activity (a hello or time step, stamped on arrival by the study's
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
    elapsed: float = 0.0
    per_client_steps: Dict[int, int] = field(default_factory=dict)

    @property
    def total_steps_sent(self) -> int:
        return int(sum(self.per_client_steps.values()))


def _kill(pid: int) -> None:
    """SIGKILL a client process (one that already ended is reported anyway)."""
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


@dataclass
class _ProcessClient:
    """The launcher's copy of one process-mode client and its current attempt."""

    spec: ClientSpec
    client: SimulationClient
    slot: int
    failures: int = 0
    pid: Optional[int] = None  # the live attempt's process, until it is killed or reaped
    started: float = 0.0


class Launcher:
    """Run all ensemble members through a client factory, series by series."""

    def __init__(
        self,
        client_factory: Callable[[ClientSpec], SimulationClient],
        specs: Sequence[ClientSpec],
        config: LauncherConfig | None = None,
        heartbeat_monitor: object | None = None,
    ) -> None:
        self.client_factory = client_factory
        self.specs = list(specs)
        self.config = config or LauncherConfig()
        #: Liveness tracker shared with the server (fed by its aggregators);
        #: required for the heartbeat watchdog in process client mode.
        self.heartbeat_monitor = heartbeat_monitor
        #: Written by the thread that runs :meth:`run` only.
        self.report = LauncherReport()
        self._last_failure: Optional[BaseException] = None  # of a client failed for good
        self._spawner: Optional[ClientSpawner] = None
        self._thread: Optional[threading.Thread] = None

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

    def _make_client(self, spec: ClientSpec) -> SimulationClient:
        client = self.client_factory(spec)
        if spec.fail_at_step is not None:
            client.fail_at_step = spec.fail_at_step
        return client

    @staticmethod
    def _check_open(client: SimulationClient) -> None:
        """Raise :class:`RouterClosed` once ``client``'s transport is closed:
        nothing it sent would be read, so it must not start or restart."""
        if client.router.closed:
            raise RouterClosed(f"transport closed: client {client.client_id} is not started")

    def _finish(self, spec: ClientSpec, steps: int, error: Optional[BaseException]) -> None:
        """Count one client that completed (``steps`` sent) or failed for good
        with ``error``."""
        if error is not None:
            self.report.clients_failed += 1
            self._last_failure = error
            logger.error("client %d permanently failed: %s", spec.client_id, error)
        else:
            self.report.clients_completed += 1
            self.report.per_client_steps[spec.client_id] = steps

    # ------------------------------------------------------------ thread mode
    def _run_client_in_thread(self, spec: ClientSpec, client: SimulationClient
                              ) -> Tuple[int, int, Optional[SimulationFailure]]:
        """A pool thread: run one client, restarting it on failure.

        Returns the steps sent, the number of failed attempts and the last
        failure once it exhausted its restarts.  The lease spans every attempt.
        """
        try:
            client.router.lease_client(client.client_id)
            failures = 0
            while True:
                self._check_open(client)
                try:
                    return client.run(solver_params=spec.solver_params).steps_sent, failures, None
                except SimulationFailure as exc:
                    failures += 1
                    logger.warning("client %d failed (%s), restart %d",
                                   client.client_id, exc, failures)
                    if failures > self.config.max_restarts:
                        return 0, failures, exc
                    client.prepare_restart()
        except BaseException as exc:  # noqa: BLE001 - thread boundary
            client.router.fail(exc)
            raise
        finally:
            client.router.release_client(client.client_id)

    def _run_series_in_threads(self, index: int, group: Sequence[ClientSpec]) -> None:
        with ThreadPoolExecutor(
            max_workers=self.config.max_concurrent_clients,
            thread_name_prefix=f"client-series-{index}",
        ) as pool:
            futures = {pool.submit(self._run_client_in_thread, spec, self._make_client(spec)): spec
                       for spec in group}
            closed: Optional[RouterClosed] = None
            for future in as_completed(futures):
                try:
                    steps, failures, error = future.result()
                except RouterClosed as exc:  # left unfinished: run() counts it
                    closed = exc
                    continue
                self.report.restarts += failures
                self._finish(futures[future], steps, error)
        if closed is not None:
            raise closed

    # ----------------------------------------------------------- process mode
    def _run_series_in_processes(self, group: Sequence[ClientSpec]) -> None:
        """One series through the spawner: one loop over its reports and the
        watchdog deadlines.  However the loop ends, the clients it still runs
        are killed and their leases released."""
        waiting = list(reversed(group))
        running: Dict[int, _ProcessClient] = {}
        poll = 0.25
        if self.config.heartbeat_timeout is not None:
            poll = min(poll, self.config.heartbeat_timeout / 4)
        try:
            while waiting or running:
                for tracked in running.values():
                    self._check_open(tracked.client)
                while waiting and len(running) < self.config.max_concurrent_clients:
                    spec = waiting.pop()
                    client = self._make_client(spec)
                    self._check_open(client)
                    slot = client.router.lease_client(spec.client_id)
                    running[spec.client_id] = _ProcessClient(spec, client, slot)
                    self._spawner.spawn(client, slot)
                report = self._spawner.receive(poll)
                if report is not None:
                    self._on_report(running, *report)
                self._enforce_deadlines(running)
        finally:
            for tracked in running.values():
                if tracked.pid is not None:
                    _kill(tracked.pid)
                tracked.client.router.release_client(tracked.spec.client_id)

    def _on_report(self, running: Dict[int, _ProcessClient], client_id: int, pid: int,
                   outcome: Optional[tuple]) -> None:
        """Handle one spawner report: a forked client, or a reaped one."""
        tracked = running[client_id]
        if outcome is None:
            tracked.pid, tracked.started = pid, time.monotonic()
            return
        tracked.pid = None
        status, steps, exitcode = outcome
        if status in ("failed", "killed"):
            tracked.failures += 1
            self.report.restarts += 1
            logger.warning("client %d process %s (exit code %s), restart %d",
                           client_id, status, exitcode, tracked.failures)
            if tracked.failures <= self.config.max_restarts:
                self._check_open(tracked.client)
                tracked.client.prepare_restart()
                self._spawner.spawn(tracked.client, tracked.slot)
                return
        del running[client_id]
        tracked.client.router.release_client(client_id)
        self._finish(tracked.spec, steps, None if status == "ok" else SimulationFailure(
            f"client {client_id} process {status} (exit code {exitcode})"))

    def _enforce_deadlines(self, running: Dict[int, _ProcessClient]) -> None:
        """Kill every client past its runtime cap or its heartbeat deadline.

        A heartbeat kill is counted in the report and in the router's
        ``TransportStats.unresponsive_kills``; the reaped client is then
        restarted like any failed one.
        """
        monitor = self.heartbeat_monitor
        heartbeat_timeout = self.config.heartbeat_timeout if monitor is not None else None
        runtime_cap = self.config.process_join_timeout
        now = time.monotonic()
        for client_id, tracked in running.items():
            if tracked.pid is None:
                continue
            age = now - tracked.started
            if runtime_cap is not None and age >= runtime_cap:
                logger.warning("client %d exceeded its runtime cap, killing process", client_id)
            elif heartbeat_timeout is None or monitor.is_finished(client_id):
                continue  # a finished client is just tearing down: never heartbeat-kill
            else:
                silence = monitor.silence(client_id, now=now)
                # Never seen: the runtime, with a 2x start-up grace.  Seen: the
                # record may be a dead predecessor's; it cannot predate this one.
                silence = age / 2 if silence is None else min(silence, age)
                if silence <= heartbeat_timeout:
                    continue
                logger.warning("client %d missed its heartbeat deadline (silent %.1fs), "
                               "killing process", client_id, silence)
                self.report.unresponsive_kills += 1
                tracked.client.router.record_unresponsive_kill()
            _kill(tracked.pid)
            tracked.pid = None

    # -------------------------------------------------------------------- run
    def run(self) -> LauncherReport:
        """Execute every series and return the report (blocking)."""
        start = time.monotonic()
        if self.config.client_mode == "process" and self._spawner is None:
            self._spawner = ClientSpawner(self.specs, self.client_factory)
        try:
            for index, group in enumerate(self._split_series()):
                if index > 0 and self.config.inter_series_delay > 0:
                    time.sleep(self.config.inter_series_delay)
                if self._spawner is None:
                    self._run_series_in_threads(index, group)
                else:
                    self._run_series_in_processes(group)
        except (ChildProcessError, RouterClosed) as exc:  # the spawner died, the server stopped
            unfinished = (len(self.specs) - self.report.clients_completed
                          - self.report.clients_failed)
            logger.error("%s: %d unfinished clients failed", exc, unfinished)
            self.report.clients_failed += unfinished
            if unfinished:
                self._last_failure = exc
        finally:
            if self._spawner is not None:
                self._spawner.close()
                self._spawner = None
        self.report.elapsed = time.monotonic() - start
        return self.report

    # ---------------------------------------------------------- async control
    def _main(self) -> None:
        """The launcher thread: :meth:`run`, failing the study if it raised or
        a client failed for good."""
        try:
            report = self.run()
            if report.clients_failed:
                raise RuntimeError(
                    f"{report.clients_failed} of {len(self.specs)} clients failed for good"
                ) from self._last_failure
        except BaseException as exc:  # noqa: BLE001 - thread boundary
            self._transport.fail(exc)

    def start(self) -> None:
        """Run the ensemble on a background thread (non-blocking); in process
        mode, first fork the client spawner from the calling thread."""
        if self._thread is not None:
            raise RuntimeError("launcher already started")
        if self.config.client_mode == "process":
            self._spawner = ClientSpawner(self.specs, self.client_factory)
        # Every client streams into one transport: the launcher thread's latch.
        self._transport = self.client_factory(self.specs[0]).router
        self._thread = threading.Thread(target=self._main, name="launcher", daemon=True)
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
