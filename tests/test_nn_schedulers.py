"""Tests for the learning-rate schedule."""

import numpy as np
import pytest

from repro.nn import Adam, StepLR
from repro.nn.module import Parameter


@pytest.fixture
def optimizer():
    return Adam([Parameter(np.zeros(3))], lr=1e-3)


def test_step_lr_halves_every_period(optimizer):
    scheduler = StepLR(optimizer, step_size=100)
    for _ in range(99):
        scheduler.step()
    assert optimizer.lr == pytest.approx(1e-3)
    scheduler.step()
    assert optimizer.lr == pytest.approx(5e-4)
    for _ in range(100):
        scheduler.step()
    assert optimizer.lr == pytest.approx(2.5e-4)


def test_step_lr_respects_floor(optimizer):
    """The paper's schedule stops at 2.5e-4."""
    scheduler = StepLR(optimizer, step_size=10)
    for _ in range(1000):
        scheduler.step()
    assert optimizer.lr == pytest.approx(2.5e-4)


def test_step_lr_validation(optimizer):
    with pytest.raises(ValueError):
        StepLR(optimizer, step_size=0)
