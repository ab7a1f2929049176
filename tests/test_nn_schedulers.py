"""Tests for the learning-rate schedule."""

import numpy as np
import pytest

from repro.nn import Adam, StepLR
from repro.nn.module import Parameter


@pytest.fixture
def optimizer():
    return Adam([Parameter(np.zeros(3))], lr=1e-3)


def test_step_lr_halves_every_period(optimizer):
    scheduler = StepLR(optimizer, step_size=100, gamma=0.5)
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
    scheduler = StepLR(optimizer, step_size=10, gamma=0.5, min_lr=2.5e-4)
    for _ in range(1000):
        scheduler.step()
    assert optimizer.lr == pytest.approx(2.5e-4)


def test_step_lr_validation(optimizer):
    with pytest.raises(ValueError):
        StepLR(optimizer, step_size=0)
    with pytest.raises(ValueError):
        StepLR(optimizer, step_size=10, gamma=1.5)


def test_scheduler_state_dict_roundtrip(optimizer):
    scheduler = StepLR(optimizer, step_size=5, gamma=0.5, min_lr=1e-5)
    for _ in range(12):
        scheduler.step()
    state = scheduler.state_dict()

    fresh_optimizer = Adam([Parameter(np.zeros(3))], lr=1e-3)
    fresh = StepLR(fresh_optimizer, step_size=99, gamma=0.9)
    fresh.load_state_dict(state)
    assert fresh.step_size == 5
    assert fresh.last_step == 12
    assert fresh_optimizer.lr == pytest.approx(optimizer.lr)
