"""The wall clock the trainer times its runs with.

Anything with the same ``now()`` can stand in for it: ``ThroughputMeter``
takes such a clock, and tests hand it one that ticks on every read.
"""

from __future__ import annotations

import time


class WallClock:
    """Monotonic wall-clock."""

    def now(self) -> float:
        """Current time in seconds (monotonic)."""
        return time.monotonic()
