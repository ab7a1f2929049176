"""Numerical solvers: the paper's 2D heat-equation use case.

The paper's data generator is an in-house Fortran90 MPI solver implementing a
finite-difference discretisation of the heat equation with an implicit Euler
scheme on a 1000x1000 Cartesian grid.  This package reimplements it:

* :class:`HeatEquationSolver` — sequential reference solver (sparse implicit
  Euler, direct factorisation or CG), plus an explicit solver for comparison.
* analytic/steady-state helpers used for verification.
"""

from repro.solvers.base import SolverConfig, TimeSeries
from repro.solvers.heat2d import (
    HeatEquationConfig,
    HeatEquationSolver,
    HeatParameters,
    explicit_step_stable_dt,
)
from repro.solvers.analytic import constant_solution, steady_state
from repro.solvers.stencil import build_laplacian, boundary_contribution

__all__ = [
    "SolverConfig",
    "TimeSeries",
    "HeatEquationConfig",
    "HeatParameters",
    "HeatEquationSolver",
    "explicit_step_stable_dt",
    "steady_state",
    "constant_solution",
    "build_laplacian",
    "boundary_contribution",
]
