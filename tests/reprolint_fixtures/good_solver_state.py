"""Fixture: read-only solvers and classes outside the rule (NEGATIVE)."""

import numpy as np


class ReadOnlySolver:
    """Builds its operator once, keeps every run's state in locals."""

    def __init__(self, size):
        self.size = size
        self._operator = np.eye(size)
        self._operator[0, 0] = 2.0  # construction may fill its own arrays

    def iter_steps(self, params):
        field = np.full(self.size, float(params))
        state = {"steps": 0}
        for step in range(1, 4):
            field = self._operator @ field
            state["steps"] += 1
            yield step, 0.1 * step, field

    def run(self, params):
        series = [field for _, _, field in self.iter_steps(params)]
        return np.stack(series)

    @staticmethod
    def describe(config):
        config.name = "read-only"  # not the instance: a staticmethod has none
        return config


class Recorder:
    """Not a solver (no ``iter_steps``): free to keep state."""

    def __init__(self):
        self.calls = 0

    def record(self):
        self.calls += 1
