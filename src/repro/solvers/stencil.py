"""Finite-difference stencils for the 2-D heat equation.

The unknowns are the interior nodes of an ``ny`` x ``nx`` grid (boundary nodes
carry Dirichlet values).  :func:`build_laplacian` assembles the standard
5-point Laplacian over the interior from its five diagonals, and
:func:`boundary_contribution` builds the right-hand-side vector holding the
Dirichlet boundary terms that the stencil reaches.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

Array = np.ndarray


def build_laplacian(ny: int, nx: int, dx: float, dy: float) -> sp.dia_matrix:
    """Assemble the 5-point Laplacian over the ``(ny-2) x (nx-2)`` interior nodes.

    The operator maps the flattened interior field (row-major, y first) to its
    discrete Laplacian, assuming homogeneous Dirichlet data (the inhomogeneous
    part is added separately by :func:`boundary_contribution`).  Its five
    diagonals (DIA) sit at offsets ``-nix, -1, 0, +1, +nix``, zero where ``±1``
    wraps a grid row: a mat-vec adds each row's terms in sorted-CSR order.
    """
    if ny < 3 or nx < 3:
        raise ValueError("need at least one interior point in each direction")
    nix = nx - 2
    size = (ny - 2) * nix
    inv_dx2 = 1.0 / dx**2
    inv_dy2 = 1.0 / dy**2
    column = np.arange(size) % nix
    diagonals = np.array([
        np.full(size, inv_dy2),
        np.where(column == nix - 1, 0.0, inv_dx2),
        np.full(size, -2.0 * inv_dx2 - 2.0 * inv_dy2),
        np.where(column == 0, 0.0, inv_dx2),
        np.full(size, inv_dy2),
    ])
    offsets = np.array([-nix, -1, 0, 1, nix])
    if nix == 1:  # the ±1 diagonals are all wrap zeros and share offsets with ±nix
        diagonals, offsets = diagonals[::2], offsets[::2]
    return sp.dia_matrix((diagonals, offsets), shape=(size, size))


def boundary_contribution(
    ny: int,
    nx: int,
    dx: float,
    dy: float,
    west: float,
    east: float,
    south: float,
    north: float,
) -> Array:
    """Dirichlet boundary terms of the Laplacian for constant edge temperatures.

    Parameters are the boundary temperatures of the four edges:
    ``west`` = T(x=0), ``east`` = T(x=L), ``south`` = T(y=0), ``north`` = T(y=L).
    Returns the flattened vector over interior nodes to *add* to ``L @ u``.
    """
    niy, nix = ny - 2, nx - 2
    inv_dx2 = 1.0 / dx**2
    inv_dy2 = 1.0 / dy**2
    contribution = np.zeros((niy, nix))
    contribution[:, 0] += west * inv_dx2
    contribution[:, -1] += east * inv_dx2
    contribution[0, :] += south * inv_dy2
    contribution[-1, :] += north * inv_dy2
    return contribution.ravel()


def embed_interior(
    interior: Array,
    ny: int,
    nx: int,
    west: float,
    east: float,
    south: float,
    north: float,
) -> Array:
    """Build the full (ny, nx) field from interior values and Dirichlet boundaries.

    Corner nodes take the average of their two adjacent edges, a convention
    that only affects plotting/training data, not the numerical solution.
    """
    field = np.empty((ny, nx))
    field[1:-1, 1:-1] = np.asarray(interior).reshape(ny - 2, nx - 2)
    field[:, 0] = west
    field[:, -1] = east
    field[0, :] = south
    field[-1, :] = north
    field[0, 0] = 0.5 * (west + south)
    field[0, -1] = 0.5 * (east + south)
    field[-1, 0] = 0.5 * (west + north)
    field[-1, -1] = 0.5 * (east + north)
    return field
