"""Shared utilities: seeding, logging, timing and exceptions."""

from repro.utils.exceptions import (
    BufferClosedError,
    CommunicatorError,
    ConfigurationError,
    ReproError,
)
from repro.utils.seeding import derive_rng
from repro.utils.timing import WallClock

__all__ = [
    "ReproError",
    "ConfigurationError",
    "BufferClosedError",
    "CommunicatorError",
    "derive_rng",
    "WallClock",
]
