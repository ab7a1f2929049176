"""Tests for the experimental-design samplers."""

import numpy as np
import pytest

from repro.sampling import (
    HaltonSampler,
    LatinHypercubeSampler,
    MonteCarloSampler,
    ParameterSpace,
    get_sampler,
)
from repro.sampling.base import HEAT_PARAMETER_SPACE
from repro.sampling.halton import halton_sequence, radical_inverse


def inside(space, points):
    """Row mask of ``points`` inside the box of ``space`` (bounds included)."""
    points = np.atleast_2d(points)
    return np.all((points >= space.lower) & (points <= space.upper), axis=1)


def discrepancy_proxy(points, bins=4):
    """Cheap uniformity proxy: mean over dimensions of the largest deviation
    of a bin's share from uniform."""
    n, d = points.shape
    deviations = [
        np.abs(np.histogram(points[:, dim], bins=bins, range=(0.0, 1.0))[0] / n - 1.0 / bins).max()
        for dim in range(d)
    ]
    return float(np.mean(deviations))


@pytest.fixture
def unit_space():
    return ParameterSpace.uniform_box(0.0, 1.0, 3)


def test_parameter_space_validation():
    with pytest.raises(ValueError):
        ParameterSpace(lower=(0.0,), upper=(1.0, 2.0))
    with pytest.raises(ValueError):
        ParameterSpace(lower=(2.0,), upper=(1.0,))
    with pytest.raises(ValueError):
        ParameterSpace(lower=(), upper=())
    with pytest.raises(ValueError):
        ParameterSpace(lower=(0.0,), upper=(1.0,), names=("a", "b"))


def test_parameter_space_scale_and_contains():
    space = ParameterSpace(lower=(0.0, 10.0), upper=(1.0, 20.0))
    scaled = space.scale(np.array([[0.5, 0.5], [0.0, 1.0]]))
    assert np.allclose(scaled, [[0.5, 15.0], [0.0, 20.0]])
    assert inside(space, scaled).all()
    assert not inside(space, np.array([2.0, 15.0]))[0]


def test_heat_parameter_space_matches_paper():
    """The paper samples 5 temperatures uniformly in [100, 500] K."""
    assert HEAT_PARAMETER_SPACE.dimension == 5
    assert HEAT_PARAMETER_SPACE.lower == (100.0,) * 5
    assert HEAT_PARAMETER_SPACE.upper == (500.0,) * 5


@pytest.mark.parametrize("cls", [MonteCarloSampler, LatinHypercubeSampler, HaltonSampler])
def test_samples_inside_box(cls):
    space = ParameterSpace(lower=(100.0, -1.0), upper=(500.0, 1.0))
    samples = cls(space, seed=0).sample(64)
    assert samples.shape == (64, 2)
    assert inside(space, samples).all()


@pytest.mark.parametrize("cls", [MonteCarloSampler, LatinHypercubeSampler, HaltonSampler])
def test_sampler_reproducible_by_seed(cls, unit_space):
    a = cls(unit_space, seed=3).sample(16)
    b = cls(unit_space, seed=3).sample(16)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("cls", [MonteCarloSampler, LatinHypercubeSampler])
def test_sampler_streams_differ_by_seed(cls, unit_space):
    a = cls(unit_space, seed=1).sample(16)
    b = cls(unit_space, seed=2).sample(16)
    assert not np.array_equal(a, b)


def test_sampler_successive_calls_continue_sequence(unit_space):
    sampler = MonteCarloSampler(unit_space, seed=0)
    first = sampler.sample(8)
    second = sampler.sample(8)
    combined = MonteCarloSampler(unit_space, seed=0).sample(16)
    assert np.allclose(np.vstack([first, second]), combined)
    assert sampler.num_drawn == 16


def test_sample_count_validation(unit_space):
    with pytest.raises(ValueError):
        MonteCarloSampler(unit_space).sample(0)


def test_latin_hypercube_stratification(unit_space):
    n = 20
    samples = LatinHypercubeSampler(unit_space, seed=0).sample(n)
    for dim in range(unit_space.dimension):
        strata = np.floor(samples[:, dim] * n).astype(int)
        assert sorted(strata.tolist()) == list(range(n))


def test_halton_radical_inverse_known_values():
    assert radical_inverse(1, 2) == pytest.approx(0.5)
    assert radical_inverse(2, 2) == pytest.approx(0.25)
    assert radical_inverse(3, 2) == pytest.approx(0.75)
    assert radical_inverse(1, 3) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        radical_inverse(-1, 2)


def test_halton_sequence_dimension_limit():
    with pytest.raises(ValueError):
        halton_sequence(0, 4, 40)


def test_halton_seed_only_shifts_the_deterministic_sequence(unit_space):
    a = HaltonSampler(unit_space, seed=1).sample(10)
    b = HaltonSampler(unit_space, seed=99).sample(10)
    assert not np.array_equal(a, b)
    # One Cranley-Patterson rotation per seed: the same shift on every row.
    shift = (a - b) % 1.0
    assert np.allclose(((shift - shift[0]) + 0.5) % 1.0 - 0.5, 0.0)


def test_low_discrepancy_beats_monte_carlo():
    """Halton/LHS cover the unit box more evenly than Monte Carlo at small n."""
    space = ParameterSpace.uniform_box(0.0, 1.0, 2)
    n = 64
    mc = discrepancy_proxy(MonteCarloSampler(space, seed=5).sample(n))
    lhs = discrepancy_proxy(LatinHypercubeSampler(space, seed=5).sample(n))
    halton = discrepancy_proxy(HaltonSampler(space, seed=5).sample(n))
    assert lhs <= mc + 1e-9
    assert halton <= mc + 1e-9


def test_get_sampler_by_name(unit_space):
    assert isinstance(get_sampler("halton", unit_space), HaltonSampler)
    assert isinstance(get_sampler("latin_hypercube", unit_space), LatinHypercubeSampler)
    with pytest.raises(KeyError):
        get_sampler("sobol", unit_space)


def test_sampler_stream_iterator(unit_space):
    sampler = MonteCarloSampler(unit_space, seed=0)
    stream = sampler.stream()
    points = [next(stream) for _ in range(3)]
    assert all(p.shape == (3,) for p in points)
