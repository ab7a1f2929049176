"""Parameter spaces and the sampler interface."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Tuple

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class ParameterSpace:
    """Axis-aligned box of simulation parameters.

    Attributes
    ----------
    lower, upper:
        Per-dimension bounds (inclusive); same length.
    names:
        Optional per-dimension labels (e.g. ``("T_IC", "T_x1", ...)``).
    """

    lower: Tuple[float, ...]
    upper: Tuple[float, ...]
    names: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper bounds must have the same length")
        if not self.lower:
            raise ValueError("parameter space must have at least one dimension")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper, strict=True)):
            raise ValueError("every lower bound must not exceed its upper bound")
        if self.names and len(self.names) != len(self.lower):
            raise ValueError("names must match the number of dimensions")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def scale(self, unit_samples: Array) -> Array:
        """Map samples from the unit hypercube to the box."""
        unit_samples = np.asarray(unit_samples, dtype=float)
        lower = np.asarray(self.lower)
        upper = np.asarray(self.upper)
        return lower + unit_samples * (upper - lower)

    @staticmethod
    def uniform_box(
        low: float, high: float, dimension: int, names: Sequence[str] = ()
    ) -> "ParameterSpace":
        """Box with identical bounds in every dimension."""
        return ParameterSpace(
            lower=tuple([float(low)] * dimension),
            upper=tuple([float(high)] * dimension),
            names=tuple(names),
        )


#: The paper's heat-equation parameter space: 5 temperatures in [100, 500] K.
HEAT_PARAMETER_SPACE = ParameterSpace.uniform_box(
    100.0, 500.0, 5, names=("T_IC", "T_x1", "T_y1", "T_x2", "T_y2")
)


class Sampler:
    """Base class: draws points from a :class:`ParameterSpace`."""

    def __init__(self, space: ParameterSpace, seed: int = 0) -> None:
        self.space = space
        self.seed = int(seed)
        self._drawn = 0

    def sample(self, count: int) -> Array:
        """Draw ``count`` points; successive calls continue the same sequence."""
        if count <= 0:
            raise ValueError("count must be positive")
        unit = self._unit_samples(count)
        self._drawn += count
        return self.space.scale(unit)

    def sample_one(self) -> Array:
        """Draw a single point (1-D array)."""
        return self.sample(1)[0]

    def stream(self) -> Iterator[Array]:
        """Infinite iterator over successive draws."""
        while True:
            yield self.sample_one()

    def _unit_samples(self, count: int) -> Array:
        """Samples in the unit hypercube; subclasses override this."""
        raise NotImplementedError

    @property
    def num_drawn(self) -> int:
        """How many points have been drawn so far."""
        return self._drawn
