"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.buffers import FIFOBuffer, FIROBuffer, ReservoirBuffer
from nn_reference import gradient_check
from repro.nn import Linear, MSELoss, ReLU, Sequential
from repro.sampling import HaltonSampler, LatinHypercubeSampler, MonteCarloSampler, ParameterSpace
from repro.solvers.heat2d import HeatEquationConfig, HeatEquationSolver, HeatParameters
from repro.utils.seeding import derive_rng


# --------------------------------------------------------------------- buffers
@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=40),
    num_samples=st.integers(min_value=0, max_value=120),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_reservoir_population_never_exceeds_capacity(capacity, num_samples, seed, rows):
    buffer = ReservoirBuffer(capacity=capacity, threshold=0, seed=seed)
    rng = derive_rng("property-reservoir", seed)
    produced = 0
    for index in range(num_samples):
        produced += buffer.put_many(rows([index]), timeout=0)
        assert len(buffer) <= capacity
        # Interleave reads at random so both seen and unseen lists get exercised.
        if produced and rng.random() < 0.5:
            assert len(buffer.get_batch_columns(1, timeout=1.0)) == 1
            assert len(buffer) <= capacity


@settings(max_examples=25, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=30),
    num_samples=st.integers(min_value=1, max_value=60),
    reads_per_put=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_reservoir_drains_every_remaining_sample(capacity, num_samples, reads_per_put, seed, rows):
    """After reception ends, draining returns exactly the stored population."""
    buffer = ReservoirBuffer(capacity=capacity, threshold=0, seed=seed)
    for index in range(num_samples):
        buffer.put_many(rows([index]), timeout=0)
        for _ in range(reads_per_put):
            buffer.get_batch_columns(1, timeout=1.0)
    population = len(buffer)
    buffer.signal_reception_over()
    drained = 0
    while len(buffer.get_batch_columns(1, timeout=0.5)):
        drained += 1
    assert drained == population
    assert len(buffer) == 0
    assert len(buffer.get_batch_columns(1, timeout=0)) == 0  # exhausted


@settings(max_examples=25, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=50),
    num_samples=st.integers(min_value=0, max_value=80),
    kind=st.sampled_from(["fifo", "firo"]),
    seed=st.integers(min_value=0, max_value=100),
)
def test_single_read_buffers_conserve_samples(capacity, num_samples, kind, seed, rows):
    """FIFO/FIRO: what comes out is exactly what went in (no loss, no duplication)."""
    if kind == "fifo":
        buffer = FIFOBuffer(capacity=capacity)
    else:
        buffer = FIROBuffer(capacity=capacity, threshold=0, seed=seed)
    accepted = []
    for index in range(num_samples):
        if buffer.put_many(rows([index]), timeout=0):
            accepted.append(index)
    buffer.signal_reception_over()
    out = []
    while len(batch := buffer.get_batch_columns(1, timeout=0.5)):
        out.extend(batch.time_steps.tolist())
    assert sorted(out) == accepted


# --------------------------------------------------------------------- sampling
@settings(max_examples=20, deadline=None)
@given(
    low=st.floats(min_value=-100.0, max_value=100.0),
    width=st.floats(min_value=1e-3, max_value=1000.0),
    dimension=st.integers(min_value=1, max_value=8),
    count=st.integers(min_value=1, max_value=64),
    kind=st.sampled_from(["mc", "lhs", "halton"]),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_samplers_stay_inside_box(low, width, dimension, count, kind, seed):
    space = ParameterSpace.uniform_box(low, low + width, dimension)
    sampler = {
        "mc": MonteCarloSampler,
        "lhs": LatinHypercubeSampler,
        "halton": HaltonSampler,
    }[kind](space, seed=seed)
    samples = sampler.sample(count)
    assert samples.shape == (count, dimension)
    assert np.all((samples >= space.lower) & (samples <= space.upper))


# ----------------------------------------------------------------------- solver
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    temps=st.lists(st.floats(min_value=100.0, max_value=500.0), min_size=5, max_size=5),
    n=st.integers(min_value=6, max_value=14),
)
def test_heat_solution_respects_maximum_principle(temps, n):
    """For any parameters in the paper's range the solution stays within bounds."""
    config = HeatEquationConfig(nx=n, ny=n, num_steps=5)
    params = HeatParameters(*temps)
    series = HeatEquationSolver(config).run(params)
    stacked = series.stack()
    assert stacked.min() >= min(temps) - 1e-6
    assert stacked.max() <= max(temps) + 1e-6
    assert np.all(np.isfinite(stacked))


# --------------------------------------------------------------------------- nn
@settings(max_examples=10, deadline=None)
@given(
    in_features=st.integers(min_value=1, max_value=6),
    hidden=st.integers(min_value=1, max_value=8),
    out_features=st.integers(min_value=1, max_value=5),
    batch=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=100),
)
def test_random_mlp_gradients_are_correct(in_features, hidden, out_features, batch, seed):
    rng = np.random.default_rng(seed)
    model = Sequential(
        Linear(in_features, hidden, rng=rng),
        ReLU(),
        Linear(hidden, out_features, rng=rng),
    )
    # Shifted off the ReLU kink so finite differences are clean.
    x = rng.standard_normal((batch, in_features)) + 0.5
    y = rng.standard_normal((batch, out_features))
    gradient_check(model, MSELoss(), x, y, atol=1e-4, rtol=1e-3)
