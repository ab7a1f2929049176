"""Test-side fault injection: a client that hangs on its first attempt."""

import time

from repro.client.simulation_client import SimulationClient

#: Steps a :class:`HangingClient` sends on its first attempt before it hangs.
HANG_AT_STEP = 3


class _HangAfter:
    """Wraps a solver: after ``steps`` steps it stops making progress without exiting."""

    def __init__(self, solver, steps):
        self.solver = solver
        self.steps = steps

    def iter_steps(self, params):
        for step, time_value, field in self.solver.iter_steps(params):
            if step > self.steps:
                while True:  # unresponsive, not dead: only a kill ends this
                    time.sleep(0.05)
            yield step, time_value, field


class HangingClient(SimulationClient):
    """Hangs after :data:`HANG_AT_STEP` steps while ``restart_count == 0``: the
    unresponsive-client shape the launcher's heartbeat watchdog must kill.
    The restarted attempt runs clean.  Only a process client can be killed,
    so only process-mode launchers use it."""

    def run(self, solver_params=None):
        if self.restart_count == 0:
            self.solver = _HangAfter(self.solver, HANG_AT_STEP)
        return super().run(solver_params)
