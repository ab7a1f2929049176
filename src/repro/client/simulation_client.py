"""A client that runs a solver instance and streams every time step.

This is the glue between a solver (anything exposing ``iter_steps(params)``)
and the :class:`repro.client.api.ClientAPI`.  It supports:

* an optional per-step delay emulating the compute cost of the full-scale
  solver (the scaled-down grids used in tests are much cheaper than the
  paper's 1000x1000 grid, so the delay restores a realistic production rate);
* fault injection (fail after a prescribed number of steps) and restart with
  checkpointing semantics: on restart the client resumes from the last
  checkpointed step, resending nothing that the server already received when
  checkpointing is enabled, or resending everything (for the server to
  deduplicate) when it is not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Protocol, Tuple

import numpy as np

from repro.client.api import ClientAPI
from repro.parallel.transport import Transport
from repro.utils.exceptions import ReproError

Array = np.ndarray


class SimulationFailure(ReproError):
    """Raised by a client whose simulation failed (fault injection or real error)."""


class SupportsIterSteps(Protocol):
    """Protocol of the solver objects a client can drive.

    A study builds one solver and every client drives it, on threads or in
    forked processes: a solver is read-only after construction and keeps all
    run state in ``iter_steps`` locals.
    """

    def iter_steps(self, params) -> Iterator[Tuple[int, float, Array]]:  # pragma: no cover
        ...


@dataclass
class ClientRunResult:
    """Summary returned by :meth:`SimulationClient.run`."""

    client_id: int
    steps_sent: int
    elapsed: float
    failed_at_step: Optional[int] = None

    @property
    def completed(self) -> bool:
        return self.failed_at_step is None


@dataclass
class SimulationClient:
    """Run one ensemble member and stream its time steps to the server.

    Parameters
    ----------
    client_id:
        Ensemble-member identifier (also used for round-robin offsetting).
    parameters:
        The simulation input vector ``X``.
    solver:
        Object with ``iter_steps(parameters)`` yielding ``(step, time, field)``.
    router:
        Transport backend connecting to the server ranks.
    num_time_steps:
        Number of steps the simulation will produce (sent in the hello message).
    step_delay:
        Optional sleep after each computed step, emulating solver cost.
    fail_at_step:
        Fault injection: raise :class:`SimulationFailure` after sending this
        many steps (None disables).
    checkpoint_enabled:
        When true, restarts resume from the last completed step instead of
        recomputing (and resending) everything.
    send_batch_size:
        Client-side batching width handed to :class:`ClientAPI`: time steps
        accumulate per server rank and each rank's batch travels as one
        transport push (one packed buffer on the multi-process backend).
    """

    client_id: int
    parameters: Tuple[float, ...]
    solver: SupportsIterSteps
    router: Transport
    num_time_steps: int
    step_delay: float = 0.0
    send_batch_size: int = 1
    fail_at_step: Optional[int] = None
    checkpoint_enabled: bool = True
    restart_count: int = field(default=0, init=False)
    _checkpoint_step: int = field(default=0, init=False)

    def run(self, solver_params: object | None = None) -> ClientRunResult:
        """Execute the simulation, streaming each step; returns a run summary.

        ``solver_params`` is the object passed to ``solver.iter_steps`` (for the
        heat solver this is a :class:`HeatParameters`); when ``None`` the raw
        parameter tuple is used.
        """
        api = ClientAPI(self.router, self.client_id,
                        send_batch_size=self.send_batch_size)
        start = time.monotonic()
        params_obj = solver_params if solver_params is not None else self.parameters
        resume_from = self._checkpoint_step if self.checkpoint_enabled else 0

        api.init_communication(
            parameters=self.parameters,
            num_time_steps=self.num_time_steps,
            field_shape=(),
            restart_count=self.restart_count,
        )
        steps_sent = 0
        failed_at: Optional[int] = None
        try:
            for step, time_value, field_values in self.solver.iter_steps(params_obj):
                if self.fail_at_step is not None and step > self.fail_at_step:
                    raise SimulationFailure(
                        f"client {self.client_id} injected failure after step {self.fail_at_step}"
                    )
                if step <= resume_from:
                    # Checkpointed restart: this step was already delivered.
                    continue
                api.send(step, time_value, self.parameters, field_values)
                steps_sent += 1
                self._checkpoint_step = step
                if self.step_delay > 0:
                    time.sleep(self.step_delay)
        except SimulationFailure:
            # Steps still buffered client-side (send batching) died with the
            # connection; rewind the checkpoint below the oldest of them so a
            # checkpointed restart recomputes and resends them — the server
            # deduplicates the overlap, but it cannot recover a skipped step.
            undelivered = api.undelivered_steps()
            if undelivered:
                self._checkpoint_step = min(self._checkpoint_step, min(undelivered) - 1)
            failed_at = self._checkpoint_step
            raise
        finally:
            elapsed = time.monotonic() - start
            if failed_at is None:
                api.finalize_communication()
        return ClientRunResult(
            client_id=self.client_id,
            steps_sent=steps_sent,
            elapsed=elapsed,
            failed_at_step=None,
        )

    def prepare_restart(self) -> None:
        """Bookkeeping before re-running a failed client (called by the launcher)."""
        self.restart_count += 1
        self.fail_at_step = None  # the injected fault fires only once
        if not self.checkpoint_enabled:
            self._checkpoint_step = 0

