"""Tests for the wall and virtual clocks."""

import pytest

from repro.utils.timing import VirtualClock, WallClock


def test_wall_clock_monotonic():
    clock = WallClock()
    first = clock.now()
    second = clock.now()
    assert second >= first


def test_virtual_clock_advance():
    clock = VirtualClock()
    assert clock.now() == 0.0
    clock.advance(5.0)
    assert clock.now() == 5.0
    clock.advance_to(3.0)  # never goes backwards
    assert clock.now() == 5.0
    clock.advance_to(7.5)
    assert clock.now() == 7.5


def test_virtual_clock_rejects_negative_advance():
    with pytest.raises(ValueError):
        VirtualClock().advance(-1.0)


def test_virtual_clock_sleep_advances():
    clock = VirtualClock(10.0)
    clock.sleep(2.5)
    assert clock.now() == 12.5
