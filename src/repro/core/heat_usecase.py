"""The paper's heat-equation use case, wired end to end.

:class:`HeatSurrogateCase` bundles everything the studies need for the paper's
experiments: the solver configuration, the parameter space and sampler, the
surrogate architecture, validation-set generation and offline dataset
generation.  Other use cases only need to provide the same small interface
(solver factory, model factory, parameter sampler) to reuse the study drivers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Tuple

import numpy as np

from repro.core.config import SurrogateArchitecture
from repro.nn.containers import Sequential
from repro.nn.mlp import MLPConfig, build_mlp
from repro.offline.storage import SimulationStore
from repro.sampling import get_sampler
from repro.sampling.base import HEAT_PARAMETER_SPACE, ParameterSpace
from repro.server.validation import ValidationSet
from repro.solvers.heat2d import HeatEquationConfig, HeatEquationSolver, HeatParameters

Array = np.ndarray

#: Threads that generate an offline dataset, sharing one solver.
GENERATION_WORKERS = 4


@dataclass
class HeatSurrogateSpec:
    """Scaled experiment description (grid size, steps, architecture)."""

    solver: HeatEquationConfig = field(
        default_factory=lambda: HeatEquationConfig(nx=16, ny=16, num_steps=20)
    )
    architecture: SurrogateArchitecture = field(
        default_factory=lambda: SurrogateArchitecture(hidden_sizes=(64, 64))
    )
    parameter_space: ParameterSpace = field(default_factory=lambda: HEAT_PARAMETER_SPACE)
    sampler: str = "monte_carlo"
    seed: int = 0


class HeatSurrogateCase:
    """Factories and data generation for the heat-equation surrogate study."""

    def __init__(self, spec: HeatSurrogateSpec | None = None) -> None:
        self.spec = spec or HeatSurrogateSpec()
        self._sampler = get_sampler(
            self.spec.sampler, self.spec.parameter_space, seed=self.spec.seed
        )

    # ------------------------------------------------------------- factories
    @property
    def solver_config(self) -> HeatEquationConfig:
        return self.spec.solver

    @property
    def field_size(self) -> int:
        """Output dimension of the surrogate (flattened grid size)."""
        return self.spec.solver.num_points

    @property
    def input_size(self) -> int:
        """Input dimension: 5 temperatures + time."""
        return self.spec.parameter_space.dimension + 1

    def solver_factory(self) -> HeatEquationSolver:
        """A fresh sequential solver; a study builds one and shares it with every client."""
        return HeatEquationSolver(self.spec.solver)

    def model_factory(self) -> Sequential:
        """A fresh surrogate replica (same seed => identical weights)."""
        config = MLPConfig(
            in_features=self.input_size,
            hidden_sizes=tuple(self.spec.architecture.hidden_sizes),
            out_features=self.field_size,
            seed=self.spec.seed,
            dtype=np.float32,
        )
        return build_mlp(config)

    # -------------------------------------------------------------- sampling
    def sample_parameters(self, count: int) -> Array:
        """Draw ``count`` parameter vectors X from the experimental design."""
        return self._sampler.sample(count)

    def parameters_to_solver(self, parameters: Array) -> HeatParameters:
        """Convert a raw parameter vector into the solver's typed parameters."""
        return HeatParameters.from_array(np.asarray(parameters))

    # --------------------------------------------------------------- datasets
    def _simulate(self, solver: HeatEquationSolver, parameters: Array) -> Tuple[Array, Array]:
        steps = self.spec.solver.num_steps
        times = np.empty(steps)
        fields = np.empty((steps, self.field_size), dtype=np.float32)
        self._simulate_into(solver, parameters, times, fields)
        return times, fields

    def _simulate_into(self, solver: HeatEquationSolver, parameters: Array,
                       times: Array, fields: Array) -> None:
        """Run one simulation into caller-owned rows: step ``k`` goes to row ``k - 1``."""
        for step, time_value, field in solver.iter_steps(self.parameters_to_solver(parameters)):
            times[step - 1] = time_value
            fields[step - 1] = field.reshape(-1)

    def generate_validation_set(
        self, num_simulations: int = 10, seed_offset: int = 10_000
    ) -> ValidationSet:
        """Generate held-out simulations never seen during training.

        The validation design uses a sampler stream shifted by ``seed_offset``
        so its parameters cannot collide with the training ensemble's.  One
        solver (so one LU factorisation) serves every simulation, each run
        straight into its rows of the two float32 blocks.
        """
        sampler = get_sampler(
            self.spec.sampler, self.spec.parameter_space, seed=self.spec.seed + seed_offset
        )
        parameter_vectors = sampler.sample(num_simulations)
        steps = self.spec.solver.num_steps
        inputs = np.empty((num_simulations * steps, self.input_size), dtype=np.float32)
        targets = np.empty((num_simulations * steps, self.field_size), dtype=np.float32)
        solver = self.solver_factory()
        for index, row in enumerate(parameter_vectors):
            rows = slice(index * steps, (index + 1) * steps)
            inputs[rows, :-1] = row
            self._simulate_into(solver, row, inputs[rows, -1], targets[rows])
        return ValidationSet(inputs=inputs, targets=targets)

    def generate_store(self, directory: str | Path, num_simulations: int) -> SimulationStore:
        """Generate an offline dataset on disk (the paper's offline baseline data).

        The generation is parallelised over a thread pool, standing in for the
        paper's observation that the framework's client parallelism is also
        useful to produce offline datasets quickly, with one shared solver.
        """
        store = SimulationStore(directory)
        parameter_vectors = self.sample_parameters(num_simulations)
        solver = self.solver_factory()
        # ``map`` yields in input order, whatever order the threads finish in.
        with ThreadPoolExecutor(max_workers=GENERATION_WORKERS) as pool:
            runs = pool.map(lambda row: self._simulate(solver, row), parameter_vectors)
            for index, (times, fields) in enumerate(runs):
                row = parameter_vectors[index].tolist()
                store.add_simulation(index, row, times.tolist(), fields)
        return store
