"""Common solver abstractions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator, List, Tuple

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class SolverConfig:
    """Generic space/time discretisation parameters shared by solvers.

    Attributes
    ----------
    nx, ny:
        Number of grid points along x and y (including boundary nodes).
    dt:
        Time-step size in seconds (the paper uses 0.01 s).
    num_steps:
        Number of time steps produced per run (the paper uses 100).
    """

    #: Physical extent of the rectangular domain in metres (the unit square).
    length_x: ClassVar[float] = 1.0
    length_y: ClassVar[float] = 1.0

    nx: int = 64
    ny: int = 64
    dt: float = 0.01
    num_steps: int = 100

    def __post_init__(self) -> None:
        if self.nx < 3 or self.ny < 3:
            raise ValueError("the grid needs at least 3 points per dimension")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.num_steps <= 0:
            raise ValueError("num_steps must be positive")

    @property
    def dx(self) -> float:
        """Grid spacing along x."""
        return self.length_x / (self.nx - 1)

    @property
    def dy(self) -> float:
        """Grid spacing along y."""
        return self.length_y / (self.ny - 1)

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """Shape (ny, nx) of the full field, boundaries included."""
        return (self.ny, self.nx)

    @property
    def num_points(self) -> int:
        """Total number of grid points of the full field."""
        return self.nx * self.ny

    @property
    def num_interior(self) -> int:
        return (self.ny - 2) * (self.nx - 2)

    def times(self) -> Array:
        """Physical times associated with each produced step (t=dt..num_steps*dt)."""
        return self.dt * np.arange(1, self.num_steps + 1)


class TimeSeries:
    """Ordered collection of (time, field) produced by one solver run."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._fields: List[Array] = []

    def append(self, time: float, field: Array) -> None:
        self._times.append(float(time))
        self._fields.append(np.asarray(field))

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Tuple[float, Array]]:
        return iter(zip(self._times, self._fields, strict=True))

    def __getitem__(self, index: int) -> Tuple[float, Array]:
        return self._times[index], self._fields[index]

    @property
    def times(self) -> Array:
        return np.asarray(self._times)

    def stack(self) -> Array:
        """All fields stacked into a (num_steps, ...) array."""
        return np.stack(self._fields, axis=0)

    def final(self) -> Array:
        """The last field of the series."""
        if not self._fields:
            raise IndexError("time series is empty")
        return self._fields[-1]
