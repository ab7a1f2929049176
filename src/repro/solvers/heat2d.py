"""Sequential 2-D heat-equation solver (the paper's data-generating simulation).

The PDE is Equation (2) of the paper::

    dT/dt = alpha * laplacian(T)
    T(x, y, 0) = T_IC
    T(0, y, t) = T_x1,  T(L, y, t) = T_x2
    T(x, 0, t) = T_y1,  T(x, L, t) = T_y2

discretised with second-order central differences in space and an implicit
(backward) Euler scheme in time, exactly as the paper's Fortran solver.  The
implicit system ``(I - dt * alpha * L) u^{n+1} = u^n + dt * alpha * b`` (five
diagonals, in DIA) is solved by LU or by :func:`conjugate_gradient`, scipy's
unpreconditioned CG: same arithmetic, byte-identical fields.

CG starts every step from the previous step's interior ``u^n`` (step 1 from
the uniform initial condition): one implicit step moves the field only a
little, so the start is already close to ``u^{n+1}`` and far fewer
iterations are needed than from zero.  Accuracy does not depend on the
start: CG stops only once the residual is below ``CG_TOL`` times ``||rhs||``,
the same test whatever the first iterate, and fails loudly otherwise.

The ensemble members share one solver: the parameters enter only the
right-hand side, so the system matrix and its LU factors are built once.
A solver is read-only after construction; each run's state lives in
``iter_steps`` locals and CG's work vectors in :func:`conjugate_gradient`'s,
so concurrent runs on one instance are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.solvers.base import SolverConfig, TimeSeries
from repro.solvers.stencil import (
    boundary_contribution,
    build_laplacian,
    embed_interior,
)

Array = np.ndarray

#: CG stops once the residual is below ``CG_TOL`` times ``||rhs||`` ...
CG_TOL = 1e-10
#: ... and fails loudly after ``CG_MAX_ITER`` iterations without converging.
CG_MAX_ITER = 2_000


@dataclass(frozen=True)
class HeatParameters:
    """The 5-dimensional input vector ``X`` of a heat-equation run.

    Attributes map to the paper's ``(T_IC, T_x1, T_y1, T_x2, T_y2)``: the
    initial temperature and the four Dirichlet boundary temperatures.
    """

    t_ic: float
    t_x1: float
    t_y1: float
    t_x2: float
    t_y2: float

    def as_tuple(self) -> Tuple[float, float, float, float, float]:
        return (self.t_ic, self.t_x1, self.t_y1, self.t_x2, self.t_y2)

    @staticmethod
    def from_array(values: Array) -> "HeatParameters":
        values = np.asarray(values, dtype=float).ravel()
        if values.size != 5:
            raise ValueError(
                f"expected 5 parameters (T_IC, T_x1, T_y1, T_x2, T_y2), got {values.size}"
            )
        return HeatParameters(*values.tolist())


@dataclass(frozen=True)
class HeatEquationConfig(SolverConfig):
    """Heat-equation specific configuration: adds the thermal diffusivity."""

    alpha: float = 1.0
    linear_solver: Literal["lu", "cg"] = "lu"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.alpha <= 0:
            raise ValueError("thermal diffusivity alpha must be positive")
        if self.linear_solver not in ("lu", "cg"):
            raise ValueError(f"linear_solver must be 'lu' or 'cg', got {self.linear_solver!r}")


class HeatEquationSolver:
    """Implicit-Euler finite-difference solver for the 2-D heat equation.

    The solver exposes two entry points:

    * :meth:`run` — run all time steps and return a :class:`TimeSeries`.
    * :meth:`iter_steps` — generator yielding ``(step, time, field)`` one step
      at a time; this is what the online client uses to stream each time step
      to the server *as soon as it is computed*.

    The five-diagonal operator ``I - dt * alpha * L`` (DIA) and its LU factors
    are built in ``__init__`` and never written again: one instance serves
    every client of a study.  Run state lives in ``iter_steps`` locals.
    """

    def __init__(self, config: HeatEquationConfig) -> None:
        self.config = config
        cfg = config
        laplacian = build_laplacian(cfg.ny, cfg.nx, cfg.dx, cfg.dy)
        diagonals = -cfg.dt * cfg.alpha * laplacian.data  # I - dt*alpha*L, diagonal by diagonal
        diagonals[laplacian.offsets == 0] += 1.0
        self._system = sp.dia_matrix((diagonals, laplacian.offsets), shape=laplacian.shape)
        self._lu: spla.SuperLU | None = None
        if cfg.linear_solver == "lu":
            self._lu = spla.splu(self._system.tocsc())

    # ------------------------------------------------------------------ steps
    def _boundary_vector(self, params: HeatParameters) -> Array:
        cfg = self.config
        return boundary_contribution(
            cfg.ny,
            cfg.nx,
            cfg.dx,
            cfg.dy,
            west=params.t_x1,
            east=params.t_x2,
            south=params.t_y1,
            north=params.t_y2,
        )

    def _solve(self, rhs: Array, guess: Array) -> Array:
        if self._lu is not None:
            return self._lu.solve(rhs)
        return conjugate_gradient(self._system, rhs, guess, CG_TOL, CG_MAX_ITER)[0]

    def iter_steps(self, params: HeatParameters) -> Iterator[Tuple[int, float, Array]]:
        """Yield ``(step_index, time, full_field)`` for each produced time step.

        ``step_index`` runs from 1 to ``num_steps``; the initial condition
        (step 0) is not emitted, matching the paper where clients send the
        fields they compute.
        """
        cfg = self.config
        boundary = self._boundary_vector(params)
        interior = np.full(cfg.num_interior, float(params.t_ic))
        for step in range(1, cfg.num_steps + 1):
            rhs = interior + cfg.dt * cfg.alpha * boundary
            interior = self._solve(rhs, interior)
            time = step * cfg.dt
            field = embed_interior(
                interior,
                cfg.ny,
                cfg.nx,
                west=params.t_x1,
                east=params.t_x2,
                south=params.t_y1,
                north=params.t_y2,
            )
            yield step, time, field

    def run(self, params: HeatParameters) -> TimeSeries:
        """Run the full simulation and collect every time step."""
        series = TimeSeries()
        for _, time, field in self.iter_steps(params):
            series.append(time, field)
        return series

    @property
    def field_size(self) -> int:
        """Number of scalars per produced field (the surrogate's output size)."""
        return self.config.num_points


def conjugate_gradient(
    system: sp.spmatrix, rhs: Array, x0: Array, rtol: float, maxiter: int
) -> Tuple[Array, int]:
    """Solve ``system @ x = rhs`` by CG from ``x0``; return ``(x, iterations)``.

    The arithmetic, in order, of scipy's unpreconditioned ``cg(..., rtol=,
    maxiter=)``, so the same solution bytes and iterations, minus its operator
    dispatch, separate norm and temporaries.  Work vectors are locals; raises
    ``RuntimeError`` when ``maxiter`` iterations do not converge.
    """
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0:
        return rhs, 0
    x = np.array(x0, dtype=float)
    residual = rhs - system @ x if x.any() else rhs.copy()
    direction, scratch = residual.copy(), np.empty_like(residual)
    for iteration in range(maxiter):
        rho = residual.dot(residual)
        if np.sqrt(rho) < rtol * rhs_norm:
            return x, iteration
        if iteration > 0:
            direction *= rho / rho_prev
            direction += residual
        product = system @ direction
        step = rho / direction.dot(product)
        x += np.multiply(direction, step, out=scratch)
        residual -= np.multiply(product, step, out=scratch)
        rho_prev = rho
    raise RuntimeError(f"CG failed to converge within {maxiter} iterations")
