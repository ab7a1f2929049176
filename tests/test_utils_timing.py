"""Tests for the wall clock."""

from repro.utils.timing import WallClock


def test_wall_clock_monotonic():
    clock = WallClock()
    first = clock.now()
    second = clock.now()
    assert second >= first
