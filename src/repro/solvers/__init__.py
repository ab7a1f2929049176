"""Numerical solvers: the paper's 2D heat-equation use case.

The paper's data generator is an in-house Fortran90 MPI solver implementing a
finite-difference discretisation of the heat equation with an implicit Euler
scheme on a 1000x1000 Cartesian grid.  This package reimplements it:

* :class:`HeatEquationSolver` — the sequential solver every client drives
  (sparse implicit Euler, direct factorisation or CG), configured by
  :class:`HeatEquationConfig` and fed one :class:`HeatParameters` per run;
* :func:`build_laplacian` / :func:`boundary_contribution` — the 5-point
  operator and its Dirichlet terms the solver assembles its system from.
"""

from repro.solvers.base import SolverConfig, TimeSeries
from repro.solvers.heat2d import HeatEquationConfig, HeatEquationSolver, HeatParameters
from repro.solvers.stencil import build_laplacian, boundary_contribution

__all__ = [
    "SolverConfig",
    "TimeSeries",
    "HeatEquationConfig",
    "HeatParameters",
    "HeatEquationSolver",
    "build_laplacian",
    "boundary_contribution",
]
