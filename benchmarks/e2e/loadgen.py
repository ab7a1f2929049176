"""Load generator of the end-to-end benchmark: seeded replay traffic.

The ingest and serving workloads must stress the wire, the aggregator and the
buffers, not a PDE solver, so their clients replay fields that were generated
*before* timing starts.  :class:`ReplaySolver` implements the solver surface a
:class:`~repro.client.simulation_client.SimulationClient` drives
(``iter_steps``/``run``) with zero compute per step, and :class:`ReplayCase`
injects it by overriding ``HeatSurrogateCase.solver_factory`` — the program
itself is unmodified and only ever sees generated inputs.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.core.heat_usecase import HeatSurrogateCase, HeatSurrogateSpec
from repro.solvers.base import TimeSeries
from repro.solvers.heat2d import HeatEquationConfig

Array = np.ndarray


def generate_fields(config: HeatEquationConfig, seed: int) -> Array:
    """The ``(num_steps, num_points)`` float32 field block replayed by every client.

    A seeded temperature pattern in the paper's [100, 500] K range relaxing
    towards its mean: smooth in the step index, so the surrogate has
    something to learn and the ``val_mse`` check stays meaningful.
    """
    rng = np.random.default_rng(seed)
    pattern = rng.uniform(100.0, 500.0, size=config.num_points)
    decay = np.exp(-3.0 * np.arange(1, config.num_steps + 1) / config.num_steps)
    fields = pattern.mean() + np.outer(decay, pattern - pattern.mean())
    return np.ascontiguousarray(fields, dtype=np.float32)


class ReplaySolver:
    """Zero-compute solver: yields the rows of a pre-generated field block.

    Every yielded field is a read-only row view, which is the ownership
    contract ``ClientAPI.send`` asks of a solver (the field is never mutated
    after it was handed over).
    """

    def __init__(self, config: HeatEquationConfig, fields: Array) -> None:
        if fields.shape != (config.num_steps, config.num_points):
            raise ValueError(
                f"replay block has shape {fields.shape}, expected "
                f"{(config.num_steps, config.num_points)}"
            )
        self.config = config
        self._fields = fields

    def iter_steps(self, params: object) -> Iterator[Tuple[int, float, Array]]:
        """Yield ``(step_index, time, field)`` for steps ``1..num_steps``."""
        dt = self.config.dt
        fields = self._fields
        for step in range(1, self.config.num_steps + 1):
            yield step, step * dt, fields[step - 1]

    def run(self, params: object) -> TimeSeries:
        series = TimeSeries()
        for _, time_value, field in self.iter_steps(params):
            series.append(time_value, field)
        return series


class ReplayCase(HeatSurrogateCase):
    """The heat use case with its solver swapped for seeded replay traffic.

    The field block is generated once, at construction (part of ``setup_s``,
    before ``launcher.start()``); ``solver_factory`` then hands every client
    a solver that shares it, so building a client inside the timed region
    costs nothing and forked clients inherit the block copy-on-write.
    """

    def __init__(self, spec: HeatSurrogateSpec) -> None:
        super().__init__(spec)
        self._fields = generate_fields(spec.solver, spec.seed)
        self._fields.setflags(write=False)

    def solver_factory(self) -> ReplaySolver:
        return ReplaySolver(self.spec.solver, self._fields)
