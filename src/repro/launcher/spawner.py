"""The client spawner: the one process that forks simulation clients.

The launcher forks it once, from the thread that starts the launcher, before
the server starts a thread: it is single-threaded and holds only the case,
the client specs, the transport and the study's one solver, which every
client it forks inherits.  Per request (client id, attempt state,
the lease slot the server chose) it installs the lease, builds the client
with the launcher's ``client_factory``, forks it as a ``fork``-context
``multiprocessing.Process`` (whose exit flushes the ``mp`` backend's queue
feeder), reports the pid, and reports ``(status, steps, exitcode)`` once it
has reaped it.  No server thread pays a copy-on-write fault for a client's
fork, and no client inherits a BLAS pool the trainer held mid-call.
"""
from __future__ import annotations

import contextlib
import multiprocessing
import os
from multiprocessing.connection import wait
from typing import Callable, Dict, Optional, Sequence

from repro.client.simulation_client import SimulationClient, SimulationFailure
from repro.utils.logging import get_logger

logger = get_logger("launcher")


def _client_main(client: SimulationClient, solver_params: object, results) -> None:
    """A client process: run the simulation, send ``(status, steps)`` to the spawner."""
    status, steps = "error", 0
    try:
        steps = client.run(solver_params=solver_params).steps_sent
        status = "ok"
    except SimulationFailure:
        status = "failed"
    except BaseException:  # noqa: BLE001 - report then exit, the launcher decides
        logger.exception("client %d process crashed", client.client_id)
    results.send((status, steps))


def _serve(context, specs: Dict[int, object], client_factory: Callable, conn) -> None:
    """The spawner's loop: fork a client per request, report it once reaped."""
    running: Dict[int, tuple] = {}  # sentinel -> (client id, process, result pipe)
    while True:
        for ready in wait([conn, *running]):
            if ready is not conn:
                client_id, process, results = running.pop(ready)
                process.join()
                try:  # the client held the only write end: data or EOF at once
                    status, steps = results.recv()
                except EOFError:  # killed before it could report
                    status, steps = "killed", 0
                results.close()
                conn.send((client_id, process.pid, (status, steps, process.exitcode)))
                continue
            try:
                request = conn.recv()
            except EOFError:  # the server is gone
                request = None
            if request is None:
                for _, process, _ in running.values():
                    process.kill()
                    process.join()
                return
            client_id, restart_count, fail_at_step, slot = request
            spec = specs[client_id]
            client = client_factory(spec)
            client.restart_count = restart_count
            client.fail_at_step = fail_at_step
            client.router.adopt_lease(client_id, slot)
            results, child_end = context.Pipe(duplex=False)
            process = context.Process(target=_client_main, name=f"client-{client_id}",
                                      args=(client, spec.solver_params, child_end), daemon=True)
            process.start()
            child_end.close()
            running[process.sentinel] = (client_id, process, results)
            conn.send((client_id, process.pid, None))


class ClientSpawner:
    """The launcher's handle on the spawner process it forked at construction."""

    def __init__(self, specs: Sequence[object], client_factory: Callable) -> None:
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self.exitcode: Optional[int] = None
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                self._conn.close()
                _serve(context, {spec.client_id: spec for spec in specs}, client_factory,
                       child_conn)
                code = 0
            except BaseException:  # noqa: BLE001 - the launcher sees the exit code
                logger.exception("client spawner failed")
            finally:
                os._exit(code)
        child_conn.close()

    def spawn(self, client: SimulationClient, slot: int) -> None:
        """Ask for one attempt of ``client`` in its current attempt state, on lease ``slot``."""
        self._conn.send((client.client_id, client.restart_count, client.fail_at_step, slot))

    def receive(self, timeout: float) -> Optional[tuple]:
        """The next ``(client_id, pid, outcome)`` report, or ``None`` after ``timeout``.

        ``outcome`` is ``None`` for a forked client and ``(status, steps,
        exitcode)`` for a reaped one.  Raises :class:`ChildProcessError` once
        the spawner is dead.
        """
        try:
            if self._conn.poll(timeout):
                return self._conn.recv()
            if not self._reap(os.WNOHANG):
                return None
        except EOFError:
            self._reap(0)
        raise ChildProcessError(f"client spawner exited (exit code {self.exitcode})")

    def _reap(self, flags: int) -> bool:
        if self.exitcode is None:
            pid, status = os.waitpid(self.pid, flags)
            if pid == 0:
                return False
            self.exitcode = os.waitstatus_to_exitcode(status)
        return True

    def close(self) -> None:
        """Shut the spawner down and reap it; it has reaped every client."""
        if self.exitcode is None:
            with contextlib.suppress(OSError):
                self._conn.send(None)
            self._reap(0)
        self._conn.close()
