"""Halton low-discrepancy sequence."""

from __future__ import annotations

import numpy as np

from repro.sampling.base import Sampler
from repro.utils.seeding import derive_rng

Array = np.ndarray

_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def radical_inverse(index: int, base: int) -> float:
    """Van der Corput radical inverse of ``index`` in the given ``base``."""
    if index < 0:
        raise ValueError("index must be non-negative")
    result = 0.0
    fraction = 1.0 / base
    while index > 0:
        index, digit = divmod(index, base)
        result += digit * fraction
        fraction /= base
    return result


def halton_sequence(start: int, count: int, dimension: int) -> Array:
    """``count`` Halton points (skipping the first ``start`` indices, 1-based)."""
    if dimension > len(_FIRST_PRIMES):
        raise ValueError(
            f"Halton sampler supports up to {len(_FIRST_PRIMES)} dimensions, got {dimension}"
        )
    bases = _FIRST_PRIMES[:dimension]
    points = np.empty((count, dimension))
    for row in range(count):
        index = start + row + 1  # skip index 0 which is the origin
        for dim, base in enumerate(bases):
            points[row, dim] = radical_inverse(index, base)
    return points


class HaltonSampler(Sampler):
    """Deterministic Halton sequence, scrambled by a seeded random shift.

    The random shift (Cranley-Patterson rotation) keeps the low-discrepancy
    structure while making different seeds produce different designs, matching
    the framework requirement that the sampler be seeded.
    """

    def __init__(self, space, seed: int = 0) -> None:
        super().__init__(space, seed=seed)
        self._shift = derive_rng("halton-sampler", seed).random(space.dimension)

    def _unit_samples(self, count: int) -> Array:
        raw = halton_sequence(self.num_drawn, count, self.space.dimension)
        return (raw + self._shift) % 1.0
