"""Latin hypercube sampling."""

from __future__ import annotations

import numpy as np

from repro.sampling.base import Sampler
from repro.utils.seeding import derive_rng

Array = np.ndarray


class LatinHypercubeSampler(Sampler):
    """Latin hypercube design: each 1/n stratum of each dimension holds one point.

    Each call to :meth:`sample` produces an independent Latin hypercube of the
    requested size (stratification holds within a call, which is how the
    launcher uses it: one design per client series).
    """

    def __init__(self, space, seed: int = 0) -> None:
        super().__init__(space, seed=seed)
        self._rng = derive_rng("latin-hypercube-sampler", seed)

    def _unit_samples(self, count: int) -> Array:
        dimension = self.space.dimension
        samples = np.empty((count, dimension))
        for dim in range(dimension):
            # One point per stratum, shuffled across rows.
            strata = (np.arange(count) + self._rng.random(count)) / count
            samples[:, dim] = self._rng.permutation(strata)
        return samples
