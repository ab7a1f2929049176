"""Wall-clock and virtual clocks.

Online-training experiments measure throughput against wall-clock time, while
the discrete-event performance model (:mod:`repro.simulation`) advances a
virtual clock.  Both expose the same ``now()`` interface so the metrics code
does not care which one it is given.
"""

from __future__ import annotations

import time


class WallClock:
    """Monotonic wall-clock."""

    def now(self) -> float:
        """Current time in seconds (monotonic)."""
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Sleep for ``seconds`` of real time."""
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock:
    """Manually advanced clock used by the discrete-event simulator."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self._now += float(seconds)
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to ``timestamp`` (no-op if already past it)."""
        self._now = max(self._now, float(timestamp))
        return self._now

    def sleep(self, seconds: float) -> None:
        """Virtual sleep simply advances the clock."""
        self.advance(seconds)

