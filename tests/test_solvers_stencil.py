"""Tests for the finite-difference stencils."""

import numpy as np
import pytest

from heat_reference import apply_laplacian_field
from repro.solvers.stencil import boundary_contribution, build_laplacian, embed_interior


def test_build_laplacian_shape_and_symmetry():
    ny, nx = 8, 6
    lap = build_laplacian(ny, nx, dx=0.1, dy=0.2)
    n = (ny - 2) * (nx - 2)
    assert lap.shape == (n, n)
    dense = lap.toarray()
    assert np.allclose(dense, dense.T)


def test_laplacian_negative_semidefinite():
    lap = build_laplacian(7, 7, dx=0.2, dy=0.2).toarray()
    eigenvalues = np.linalg.eigvalsh(lap)
    assert np.all(eigenvalues < 0.0)  # Dirichlet Laplacian is negative definite


def test_laplacian_matches_direct_stencil_application():
    """The assembled sparse operator equals the hand-written stencil + boundary terms."""
    rng = np.random.default_rng(0)
    ny, nx, dx, dy = 9, 7, 0.15, 0.25
    west, east, south, north = 100.0, 200.0, 300.0, 400.0
    interior = rng.random((ny - 2, nx - 2))
    field = embed_interior(interior, ny, nx, west, east, south, north)

    direct = apply_laplacian_field(field, dx, dy)
    lap = build_laplacian(ny, nx, dx, dy)
    boundary = boundary_contribution(ny, nx, dx, dy, west, east, south, north)
    assembled = (lap @ interior.ravel() + boundary).reshape(ny - 2, nx - 2)
    assert np.allclose(direct, assembled)


def test_laplacian_of_linear_field_is_zero():
    """The 5-point stencil is exact for affine fields."""
    ny, nx = 10, 12
    y, x = np.mgrid[0:ny, 0:nx]
    field = 2.0 + 3.0 * x + 4.0 * y
    lap = apply_laplacian_field(field, dx=1.0, dy=1.0)
    assert np.allclose(lap, 0.0, atol=1e-10)


def test_laplacian_of_quadratic_field():
    """Laplacian of x^2 + y^2 is exactly 4 for the 5-point stencil."""
    ny, nx = 10, 10
    y, x = np.mgrid[0:ny, 0:nx].astype(float)
    field = x**2 + y**2
    lap = apply_laplacian_field(field, dx=1.0, dy=1.0)
    assert np.allclose(lap, 4.0)


def test_boundary_contribution_only_touches_edges():
    ny, nx = 8, 8
    contribution = boundary_contribution(ny, nx, 0.1, 0.1, 1.0, 2.0, 3.0, 4.0)
    contribution = contribution.reshape(ny - 2, nx - 2)
    assert np.all(contribution[1:-1, 1:-1] == 0.0)
    assert np.all(contribution[:, 0] != 0.0)
    assert np.all(contribution[0, :] != 0.0)


def test_embed_interior_sets_boundaries():
    interior = np.zeros((3, 3))
    field = embed_interior(interior, 5, 5, west=1.0, east=2.0, south=3.0, north=4.0)
    assert field.shape == (5, 5)
    assert np.all(field[1:-1, 0] == 1.0)
    assert np.all(field[1:-1, -1] == 2.0)
    assert np.all(field[0, 1:-1] == 3.0)
    assert np.all(field[-1, 1:-1] == 4.0)
    assert field[0, 0] == pytest.approx(2.0)  # corner = mean of adjacent edges


def test_build_laplacian_validation():
    with pytest.raises(ValueError):
        build_laplacian(2, 5, 0.1, 0.1)
