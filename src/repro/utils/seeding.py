"""Deterministic seeding helpers.

The paper stresses that all stochastic components (network initialisation,
parameter sampler, training buffer) are seeded for reproducibility.  This
module centralises seed derivation so that independent components receive
independent, but reproducible, random streams.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

#: Default seed used when a component does not receive an explicit one.
DEFAULT_SEED = 20230916


def _stable_hash(tokens: Iterable[object]) -> int:
    """Hash a sequence of tokens into a 63-bit integer, stable across runs."""
    digest = hashlib.sha256()
    for token in tokens:
        digest.update(repr(token).encode("utf-8"))
        digest.update(b"\x00")
    return int.from_bytes(digest.digest()[:8], "little") & ((1 << 63) - 1)


def derive_rng(*tokens: object, seed: int | None = None) -> np.random.Generator:
    """Create a generator whose stream depends on ``seed`` and ``tokens``.

    Two calls with the same seed and tokens return generators producing the
    same stream; different tokens produce statistically independent streams.
    """
    base = DEFAULT_SEED if seed is None else int(seed)
    return np.random.default_rng(np.random.SeedSequence([base, _stable_hash(tokens)]))

