"""Tests for the optimizer."""

import numpy as np
import pytest

from repro.nn import Adam, Linear, MSELoss, Sequential
from repro.nn.module import Parameter


def quadratic_problem():
    """A single-parameter quadratic: minimise ||w - target||^2."""
    target = np.array([1.0, -2.0, 3.0])
    param = Parameter(np.zeros(3))

    def compute_grad():
        param.grad[...] = 2.0 * (param.data - target)

    return param, target, compute_grad


def test_adam_converges_on_quadratic():
    param, target, compute_grad = quadratic_problem()
    optimizer = Adam([param], lr=0.1)
    for _ in range(300):
        compute_grad()
        optimizer.step()
    assert np.allclose(param.data, target, atol=1e-2)


def test_optimizer_requires_parameters():
    with pytest.raises(ValueError):
        Adam([], lr=1e-3)


def test_optimizer_rejects_bad_lr():
    param = Parameter(np.zeros(2))
    with pytest.raises(ValueError):
        Adam([param], lr=0.0)


def test_zero_grad_via_optimizer():
    param = Parameter(np.ones(3))
    param.grad += 2.0
    optimizer = Adam([param], lr=0.1)
    optimizer.zero_grad()
    assert np.all(param.grad == 0)


def test_training_reduces_loss_end_to_end():
    rng = np.random.default_rng(0)
    model = Sequential(Linear(3, 16, rng=rng), Linear(16, 1, rng=rng))
    optimizer = Adam(model.parameters(), lr=1e-2)
    loss = MSELoss()
    x = rng.random((64, 3))
    y = (x.sum(axis=1, keepdims=True) * 2.0) + 1.0
    first = None
    for _ in range(200):
        model.zero_grad()
        value = loss.forward(model.forward(x), y)
        if first is None:
            first = value
        model.backward(loss.backward())
        optimizer.step()
    assert value < first * 0.05
