"""Reference solutions and solvers the heat-equation tests compare against.

Analytic fields (a constant field, a decaying eigenmode), the stationary
Laplace solve, the 5-point stencil applied to a full field, and a
forward-Euler solver: independent checks of the implicit solver in
``repro.solvers``, not part of it.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np
import scipy.sparse.linalg as spla

from repro.solvers import (
    HeatEquationConfig,
    HeatParameters,
    TimeSeries,
    boundary_contribution,
    build_laplacian,
)
from repro.solvers.stencil import embed_interior

Array = np.ndarray


def constant_solution(config: HeatEquationConfig, temperature: float) -> Array:
    """The exact solution when IC and every boundary share one temperature.

    A spatially constant field is a fixed point of the heat equation, so the
    solver must reproduce it at every time step to round-off accuracy.
    """
    return np.full(config.grid_shape, float(temperature))


def steady_state(config: HeatEquationConfig, params: HeatParameters) -> Array:
    """Stationary solution of the boundary-value problem (Laplace equation).

    For long horizons the transient solution converges to this field: the
    same 5-point operator and boundary terms as the implicit solver, solved
    once for ``laplacian(T) = 0``.
    """
    ny, nx = config.grid_shape
    edges = dict(west=params.t_x1, east=params.t_x2, south=params.t_y1, north=params.t_y2)
    boundary = boundary_contribution(ny, nx, config.dx, config.dy, **edges)
    laplacian = build_laplacian(ny, nx, config.dx, config.dy)
    interior = spla.spsolve(laplacian.tocsc(), -boundary)
    return embed_interior(interior, ny, nx, **edges)


def separable_mode_decay(
    config: HeatEquationConfig,
    amplitude: float = 1.0,
    mode_x: int = 1,
    mode_y: int = 1,
) -> tuple[Array, float]:
    """Initial field and decay rate of a separable eigenmode of the Laplacian.

    With homogeneous Dirichlet boundaries, ``sin(k_x x) * sin(k_y y)`` decays
    exactly as ``exp(-alpha (k_x^2 + k_y^2) t)``.  Returns the initial interior
    field (full grid with zero boundary) and the continuous decay rate
    ``alpha * (k_x^2 + k_y^2)``; used to measure the temporal order of accuracy
    of the implicit scheme.
    """
    x = np.linspace(0.0, config.length_x, config.nx)
    y = np.linspace(0.0, config.length_y, config.ny)
    kx = mode_x * np.pi / config.length_x
    ky = mode_y * np.pi / config.length_y
    field = amplitude * np.outer(np.sin(ky * y), np.sin(kx * x))
    rate = config.alpha * (kx**2 + ky**2)
    return field, rate


def apply_laplacian_field(field: Array, dx: float, dy: float) -> Array:
    """Apply the 5-point Laplacian to the interior of a full field (with boundaries).

    ``field`` has shape (ny, nx) including boundary nodes; the result has shape
    (ny-2, nx-2): an independent check of the assembled sparse operator.
    """
    field = np.asarray(field)
    interior = field[1:-1, 1:-1]
    return (
        (field[1:-1, :-2] - 2.0 * interior + field[1:-1, 2:]) / dx**2
        + (field[:-2, 1:-1] - 2.0 * interior + field[2:, 1:-1]) / dy**2
    )


def explicit_step_stable_dt(config: HeatEquationConfig) -> float:
    """Largest stable forward-Euler time step for the given discretisation."""
    dx2, dy2 = config.dx**2, config.dy**2
    return dx2 * dy2 / (2.0 * config.alpha * (dx2 + dy2))


class ExplicitHeatSolver:
    """Forward-Euler variant, used to cross-check the implicit solver.

    Only stable when ``dt <= dx^2 dy^2 / (2 alpha (dx^2 + dy^2))``.
    """

    def __init__(self, config: HeatEquationConfig) -> None:
        self.config = config
        stable = explicit_step_stable_dt(config)
        if config.dt > stable:
            raise ValueError(
                f"explicit solver unstable: dt={config.dt} exceeds the stability limit {stable:.3e}"
            )

    def iter_steps(self, params: HeatParameters) -> Iterator[Tuple[int, float, Array]]:
        cfg = self.config
        field = np.full(cfg.grid_shape, float(params.t_ic))
        field[:, 0] = params.t_x1
        field[:, -1] = params.t_x2
        field[0, :] = params.t_y1
        field[-1, :] = params.t_y2
        for step in range(1, cfg.num_steps + 1):
            lap = apply_laplacian_field(field, cfg.dx, cfg.dy)
            field = field.copy()
            field[1:-1, 1:-1] += cfg.dt * cfg.alpha * lap
            yield step, step * cfg.dt, field

    def run(self, params: HeatParameters) -> TimeSeries:
        series = TimeSeries()
        for _, time, field in self.iter_steps(params):
            series.append(time, field)
        return series
