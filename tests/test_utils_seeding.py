"""Tests for the seeding utilities."""

import numpy as np

from repro.utils.seeding import DEFAULT_SEED, derive_rng


def test_derive_rng_reproducible():
    a = derive_rng("component", 1, seed=42).random(5)
    b = derive_rng("component", 1, seed=42).random(5)
    assert np.array_equal(a, b)


def test_derive_rng_differs_across_tokens():
    a = derive_rng("component", 1, seed=42).random(5)
    b = derive_rng("component", 2, seed=42).random(5)
    assert not np.array_equal(a, b)


def test_derive_rng_differs_across_seeds():
    a = derive_rng("component", seed=1).random(5)
    b = derive_rng("component", seed=2).random(5)
    assert not np.array_equal(a, b)


def test_derive_rng_without_seed_uses_default_seed():
    """No process-global seed: an unseeded stream is the DEFAULT_SEED stream."""
    assert np.array_equal(derive_rng("x").random(3), derive_rng("x", seed=DEFAULT_SEED).random(3))
