"""Fixture: solvers that keep run state on ``self`` (POSITIVE, 6 findings).

One solver serves every client of a study: a field cached on the instance
leaks one client's run into another's on threads, and the counters of forked
clients silently diverge from the server's copy.
"""

import numpy as np


class CachingSolver:
    def __init__(self, size):
        self.size = size
        self.calls = 0
        self.history = {}

    def iter_steps(self, params):
        self.calls += 1  # finding
        field = np.full(self.size, float(params))
        for step in range(1, 4):
            field = field * 0.5
            self.last_field = field  # finding
            self.history[step] = field  # finding
            yield step, 0.1 * step, field

    def reset(self):
        del self.last_field  # finding
        self.stats.resets, other = 1, 0  # finding
        for self.cursor in range(2):  # finding
            pass
        return other
