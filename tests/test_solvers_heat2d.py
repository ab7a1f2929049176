"""Tests for the sequential heat-equation solver."""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from heat_reference import (
    ExplicitHeatSolver,
    constant_solution,
    explicit_step_stable_dt,
    separable_mode_decay,
    steady_state,
)
from repro.solvers import heat2d
from repro.solvers.base import SolverConfig
from repro.solvers.heat2d import HeatEquationConfig, HeatEquationSolver, HeatParameters
from repro.solvers.stencil import boundary_contribution, build_laplacian


@pytest.fixture
def cg_calls(monkeypatch):
    """Record every CG solve of the solver: ``x0``, iterations and solution."""
    calls = []
    kernel = heat2d.conjugate_gradient

    def recording_cg(system, rhs, x0, rtol, maxiter):
        call = {"x0": np.array(x0, copy=True)}
        solution, call["iterations"] = kernel(system, rhs, x0, rtol, maxiter)
        call["solution"] = solution.copy()
        calls.append(call)
        return solution, call["iterations"]

    monkeypatch.setattr(heat2d, "conjugate_gradient", recording_cg)
    return calls


def scipy_cg(system, rhs, x0, rtol, maxiter):
    """``scipy.sparse.linalg.cg`` with the kernel's signature and return value."""
    iterations = 0

    def count(_x):
        nonlocal iterations
        iterations += 1

    solution, info = spla.cg(system, rhs, x0=x0, rtol=rtol, maxiter=maxiter, callback=count)
    assert info == 0
    return solution, iterations


def test_config_validation():
    with pytest.raises(ValueError):
        HeatEquationConfig(nx=2, ny=10)
    with pytest.raises(ValueError):
        HeatEquationConfig(dt=0.0)
    with pytest.raises(ValueError):
        HeatEquationConfig(alpha=-1.0)
    for solver in ("LU", "CG", "jacobi", ""):
        with pytest.raises(ValueError, match="linear_solver"):
            HeatEquationConfig(linear_solver=solver)


def test_config_derived_quantities(monkeypatch):
    monkeypatch.setattr(SolverConfig, "length_y", 2.0)
    config = HeatEquationConfig(nx=11, ny=21, num_steps=7)
    assert config.dx == pytest.approx(0.1)
    assert config.dy == pytest.approx(0.1)
    assert config.grid_shape == (21, 11)
    assert config.num_points == 231
    assert config.num_interior == 19 * 9
    assert len(config.times()) == 7


def test_parameters_roundtrip_and_validation():
    params = HeatParameters(200.0, 300.0, 400.0, 150.0, 250.0)
    assert HeatParameters.from_array(np.array(params.as_tuple())) == params
    assert params.as_tuple() == (200.0, 300.0, 400.0, 150.0, 250.0)
    with pytest.raises(ValueError):
        HeatParameters.from_array(np.zeros(4))


@pytest.mark.parametrize("linear_solver", ["lu", "cg"])
def test_constant_temperature_is_fixed_point(small_solver_config, linear_solver, cg_calls):
    """IC equal to all boundary temperatures must stay constant (round-off only)."""
    config = replace(small_solver_config, linear_solver=linear_solver)
    solver = HeatEquationSolver(config)
    params = HeatParameters(321.0, 321.0, 321.0, 321.0, 321.0)
    series = solver.run(params)
    expected = constant_solution(config, 321.0)
    for _, field in series:
        assert np.allclose(field, expected, atol=1e-9)
    # CG starts at the fixed point itself, so no step needs an iteration.
    assert len(cg_calls) == (config.num_steps if linear_solver == "cg" else 0)
    assert all(call["iterations"] == 0 for call in cg_calls)


def test_solution_bounded_by_extremes(small_solver_config, heat_params):
    """Maximum principle: the temperature stays within [min, max] of IC and BCs."""
    solver = HeatEquationSolver(small_solver_config)
    series = solver.run(heat_params)
    low = min(heat_params.as_tuple())
    high = max(heat_params.as_tuple())
    stacked = series.stack()
    assert stacked.min() >= low - 1e-8
    assert stacked.max() <= high + 1e-8


def test_long_time_convergence_to_steady_state(heat_params):
    config = HeatEquationConfig(nx=12, ny=12, dt=0.05, num_steps=400)
    solver = HeatEquationSolver(config)
    final = solver.run(heat_params).final()
    stationary = steady_state(config, heat_params)
    assert np.allclose(final, stationary, atol=1e-3)


def test_series_metadata(small_solver_config, heat_params):
    solver = HeatEquationSolver(small_solver_config)
    series = solver.run(heat_params)
    assert len(series) == small_solver_config.num_steps
    times = series.times
    assert times[0] == pytest.approx(small_solver_config.dt)
    assert times[-1] == pytest.approx(small_solver_config.dt * small_solver_config.num_steps)
    assert series.stack().shape == (small_solver_config.num_steps, *small_solver_config.grid_shape)


def test_iter_steps_streams_in_order(small_solver_config, heat_params):
    solver = HeatEquationSolver(small_solver_config)
    steps = [step for step, _, _ in solver.iter_steps(heat_params)]
    assert steps == list(range(1, small_solver_config.num_steps + 1))


def test_cg_solver_matches_lu(heat_params):
    lu_config = HeatEquationConfig(nx=48, ny=48, num_steps=30, linear_solver="lu")
    cg_config = replace(lu_config, linear_solver="cg")
    lu_fields = HeatEquationSolver(lu_config).run(heat_params).stack()
    cg_fields = HeatEquationSolver(cg_config).run(heat_params).stack()
    assert np.abs(lu_fields - cg_fields).max() <= 1e-6


def test_cg_starts_every_step_from_the_previous_step(heat_params, cg_calls):
    config = HeatEquationConfig(nx=12, ny=14, num_steps=6, linear_solver="cg")
    fields = [field for _, _, field in HeatEquationSolver(config).iter_steps(heat_params)]
    assert len(cg_calls) == config.num_steps
    assert np.array_equal(cg_calls[0]["x0"], np.full(config.num_interior, heat_params.t_ic))
    for previous, call, field in zip(cg_calls, cg_calls[1:], fields, strict=False):
        assert np.array_equal(call["x0"], previous["solution"])
        assert np.array_equal(call["x0"], field[1:-1, 1:-1].ravel())


def test_warm_started_cg_needs_at_most_half_the_cold_start_iterations(heat_params, cg_calls):
    """The solver_bound workload's shape: 96x96, 30 CG steps."""
    config = HeatEquationConfig(nx=96, ny=96, num_steps=30, linear_solver="cg")
    for _ in HeatEquationSolver(config).iter_steps(heat_params):
        pass
    warm = sum(call["iterations"] for call in cg_calls)
    del cg_calls[:]

    # Reference: the same implicit steps, each CG started from zero (through
    # the recording wrapper too, so both sides are counted the same way).
    laplacian = build_laplacian(config.ny, config.nx, config.dx, config.dy)
    system = sp.identity(config.num_interior, format="csr") - config.dt * config.alpha * laplacian
    boundary = boundary_contribution(
        config.ny,
        config.nx,
        config.dx,
        config.dy,
        west=heat_params.t_x1,
        east=heat_params.t_x2,
        south=heat_params.t_y1,
        north=heat_params.t_y2,
    )
    interior = np.full(config.num_interior, heat_params.t_ic)
    zero = np.zeros(config.num_interior)
    for _ in range(config.num_steps):
        rhs = interior + config.dt * config.alpha * boundary
        # The kernel raises unless it converges.
        interior, _ = heat2d.conjugate_gradient(
            system, rhs, zero, heat2d.CG_TOL, heat2d.CG_MAX_ITER
        )
    cold = sum(call["iterations"] for call in cg_calls)
    assert 0 < warm <= 0.5 * cold


@pytest.mark.parametrize("shape, warm", [((96, 96), True), ((14, 12), False)],
                         ids=["96x96-warm", "12x14-zero-start"])
def test_conjugate_gradient_matches_scipy_cg_bit_for_bit(heat_params, shape, warm):
    """The kernel is scipy's CG step for step: the same solution bytes and the
    same iteration count, warm-started along a run or started from zero."""
    ny, nx = shape
    config = HeatEquationConfig(nx=nx, ny=ny, num_steps=30, linear_solver="cg")
    solver = HeatEquationSolver(config)
    boundary = solver._boundary_vector(heat_params)
    interior = np.full(config.num_interior, heat_params.t_ic)
    total = 0
    for _ in range(config.num_steps):
        rhs = interior + config.dt * config.alpha * boundary
        x0 = interior if warm else np.zeros_like(interior)
        before = x0.copy()
        args = (solver._system, rhs, x0, heat2d.CG_TOL, heat2d.CG_MAX_ITER)
        ours, iterations = heat2d.conjugate_gradient(*args)
        assert np.array_equal(x0, before)  # the kernel does not write x0
        reference, reference_iterations = scipy_cg(*args)
        assert ours.tobytes() == reference.tobytes()
        assert iterations == reference_iterations > 0
        total += iterations
        interior = ours
    if warm:
        assert total == 2290  # scipy's count on the CSR operator before the DIA one


def test_conjugate_gradient_zero_rhs_returns_it_at_once():
    system = HeatEquationSolver(HeatEquationConfig(nx=6, ny=6, linear_solver="cg"))._system
    rhs = np.zeros(16)
    solution, iterations = heat2d.conjugate_gradient(system, rhs, np.ones(16), 1e-10, 5)
    assert iterations == 0 and solution is rhs


def test_cg_that_does_not_converge_fails_loudly(heat_params, monkeypatch):
    monkeypatch.setattr(heat2d, "CG_MAX_ITER", 1)
    config = HeatEquationConfig(nx=12, ny=12, num_steps=3, linear_solver="cg")
    with pytest.raises(RuntimeError, match="CG failed to converge"):
        HeatEquationSolver(config).run(heat_params)


def _field_digest(config, seed):
    params = HeatParameters(*np.random.default_rng(seed).uniform(100.0, 500.0, 5))
    digest = hashlib.sha256()
    for _, _, field in HeatEquationSolver(config).iter_steps(params):
        digest.update(field.tobytes())
    return digest.hexdigest()


_CG_96 = HeatEquationConfig(nx=96, ny=96, num_steps=30, linear_solver="cg")
_LU_32 = HeatEquationConfig(nx=32, ny=32, num_steps=100, linear_solver="lu")


@pytest.mark.parametrize("config, seed, digest", [
    (_CG_96, 1, "bbec41849c263d425adb2271198c87923dde03b21c8ddd1d276b79eb2ef1c788"),
    (_CG_96, 2, "7ebafdb22c2d7e27d9287a8843314d8066537e3d1d092d38ef74689ebf6f7b49"),
    (_CG_96, 3, "217ce803dff5ea804d44af02e0df76790c255799659d9640d4c882e007c59633"),
    (_LU_32, 1, "56f69dc3923a7f4855d962781fe6195fd8a11299346890f4bf25239fc2b226c7"),
    (_LU_32, 2, "8885f77906db604849c1210c09a60c339693dd7550bbbe894e68fec720ade335"),
    (_LU_32, 3, "34c580ec7a919b9c25d93f47c42901b0b4607c330a6f7390439d3bfcded56f1d"),
], ids=["cg-96x96-1", "cg-96x96-2", "cg-96x96-3", "lu-32x32-1", "lu-32x32-2", "lu-32x32-3"])
def test_fields_are_byte_identical_to_the_csr_operator_with_scipy_cg(config, seed, digest):
    """Digests of every yielded field, recorded with the CSR operator
    (``kronsum``, ``identity - dt*alpha*L``) and ``scipy.sparse.linalg.cg``:
    the five-diagonal operator and the CG kernel change no byte."""
    assert _field_digest(config, seed) == digest


@pytest.mark.parametrize("ny, nx, dx, dy", [
    (12, 12, 0.1, 0.1), (32, 32, 1 / 31, 1 / 31), (48, 48, 1 / 47, 1 / 47),
    (12, 14, 0.1, 0.07), (3, 7, 0.5, 0.2), (9, 3, 0.1, 0.3),
])
def test_system_equals_the_csr_assembly_entry_for_entry(ny, nx, dx, dy, monkeypatch):
    """``I - dt*alpha*L`` from its diagonals equals the CSR sparse arithmetic;
    its CSC copy has the same nonzeros, and the LU solves agree to the byte."""
    monkeypatch.setattr(SolverConfig, "length_x", dx * (nx - 1))
    monkeypatch.setattr(SolverConfig, "length_y", dy * (ny - 1))
    config = HeatEquationConfig(nx=nx, ny=ny, num_steps=1)
    system = HeatEquationSolver(config)._system
    assert isinstance(system, sp.dia_matrix)
    csr_laplacian = sp.kronsum(
        sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(nx - 2, nx - 2)) / config.dx**2,
        sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(ny - 2, ny - 2)) / config.dy**2,
        format="csr",
    )
    identity = sp.identity(config.num_interior, format="csr")
    reference = identity - config.dt * config.alpha * csr_laplacian
    assert np.array_equal(system.toarray(), reference.toarray())
    assert system.tocsc().nnz == reference.tocsc().nnz
    rhs = np.random.default_rng(0).uniform(100.0, 500.0, config.num_interior)
    assert (system @ rhs).tobytes() == (reference @ rhs).tobytes()
    lu = spla.splu(system.tocsc()).solve(rhs)
    assert lu.tobytes() == spla.splu(reference.tocsc()).solve(rhs).tobytes()


def test_explicit_solver_requires_stable_dt(heat_params):
    config = HeatEquationConfig(nx=20, ny=20, dt=0.01, num_steps=3)
    assert explicit_step_stable_dt(config) < 0.01
    with pytest.raises(ValueError):
        ExplicitHeatSolver(config)


def test_explicit_and_implicit_agree_for_small_dt(heat_params):
    stable_config = HeatEquationConfig(nx=14, ny=14, dt=5e-4, num_steps=40)
    assert stable_config.dt <= explicit_step_stable_dt(stable_config)
    implicit = HeatEquationSolver(stable_config).run(heat_params).final()
    explicit = ExplicitHeatSolver(stable_config).run(heat_params).final()
    # Both are first-order in time; they agree to O(dt) on the interior (the
    # two solvers use different cosmetic conventions for the corner nodes).
    assert np.allclose(implicit[1:-1, 1:-1], explicit[1:-1, 1:-1], rtol=0.0, atol=2.0)


def test_implicit_euler_decay_rate_first_order():
    """A single Laplacian eigenmode decays at the implicit-Euler rate 1/(1+dt*lambda)."""
    config = HeatEquationConfig(nx=33, ny=33, dt=1e-3, num_steps=10, alpha=1.0)
    initial, rate = separable_mode_decay(config, amplitude=1.0)
    solver = HeatEquationSolver(config)

    # Manually run the implicit stepping on the eigenmode initial condition.
    interior = initial[1:-1, 1:-1].ravel().copy()
    boundary = np.zeros_like(interior)
    for _ in range(config.num_steps):
        interior = solver._lu.solve(interior + config.dt * config.alpha * boundary)

    # Discrete eigenvalue of the 5-point Laplacian for mode (1, 1).
    kx = np.pi / config.length_x
    ky = np.pi / config.length_y
    lam = (4.0 / config.dx**2) * np.sin(kx * config.dx / 2.0) ** 2 + (
        4.0 / config.dy**2
    ) * np.sin(ky * config.dy / 2.0) ** 2
    expected_factor = (1.0 / (1.0 + config.dt * lam)) ** config.num_steps
    measured_factor = np.abs(interior).max() / np.abs(initial[1:-1, 1:-1]).max()
    assert measured_factor == pytest.approx(expected_factor, rel=1e-6)
    assert expected_factor == pytest.approx(np.exp(-rate * config.dt * config.num_steps), rel=0.05)


def test_steady_state_harmonic_mean_value():
    """The steady state with equal boundaries is that constant everywhere."""
    config = HeatEquationConfig(nx=10, ny=10, num_steps=2)
    params = HeatParameters(100.0, 250.0, 250.0, 250.0, 250.0)
    stationary = steady_state(config, params)
    assert np.allclose(stationary, 250.0, atol=1e-8)


def test_field_size_property():
    config = HeatEquationConfig(nx=16, ny=12, num_steps=2)
    assert HeatEquationSolver(config).field_size == 16 * 12


def _stream(solver, runs, barrier=None):
    """Every field ``solver`` yields for ``runs`` in turn, optionally in lockstep."""
    fields = []
    for params in runs:
        for _, _, field in solver.iter_steps(params):
            fields.append(field.copy())
            if barrier is not None:
                barrier.wait(timeout=30)
    return fields


@pytest.mark.parametrize("config", [
    HeatEquationConfig(nx=32, ny=32, num_steps=10, linear_solver="lu"),
    HeatEquationConfig(nx=12, ny=12, num_steps=10, linear_solver="cg"),
], ids=["lu-32x32", "cg-12x12"])
def test_one_solver_shared_by_two_threads_matches_fresh_solvers(config):
    """A study's clients share one solver: two threads streaming different
    parameters through it, step for step and switching mid-step, yield
    exactly what a fresh solver yields for each parameter set alone."""
    rng = np.random.default_rng(7)
    runs = [[HeatParameters(*rng.uniform(100.0, 500.0, 5)) for _ in range(4)] * 3
            for _ in range(2)]
    expected = [_stream(HeatEquationSolver(config), run) for run in runs]
    shared = HeatEquationSolver(config)
    barrier = threading.Barrier(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            streamed = list(pool.map(lambda run: _stream(shared, run, barrier), runs))
    finally:
        sys.setswitchinterval(interval)
    for fresh, threaded in zip(expected, streamed):
        assert len(threaded) == len(fresh) == 12 * config.num_steps
        assert all(np.array_equal(a, b) for a, b in zip(fresh, threaded))
