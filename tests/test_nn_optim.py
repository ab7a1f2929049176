"""Tests for the optimizers."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, AdamW, Linear, MSELoss, RMSProp, Sequential
from repro.nn.module import Parameter
from repro.nn.optim import get_optimizer


def quadratic_problem():
    """A single-parameter quadratic: minimise ||w - target||^2."""
    target = np.array([1.0, -2.0, 3.0])
    param = Parameter(np.zeros(3))

    def compute_grad():
        param.grad[...] = 2.0 * (param.data - target)

    return param, target, compute_grad


@pytest.mark.parametrize(
    "factory",
    [
        lambda p: SGD([p], lr=0.05),
        lambda p: SGD([p], lr=0.05, momentum=0.9),
        lambda p: SGD([p], lr=0.05, momentum=0.9, nesterov=True),
        lambda p: RMSProp([p], lr=0.05),
        lambda p: Adam([p], lr=0.1),
        lambda p: AdamW([p], lr=0.1, weight_decay=1e-4),
    ],
)
def test_optimizers_converge_on_quadratic(factory):
    param, target, compute_grad = quadratic_problem()
    optimizer = factory(param)
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
        SGD([param], lr=0.0)


def test_nesterov_requires_momentum():
    param = Parameter(np.zeros(2))
    with pytest.raises(ValueError):
        SGD([param], lr=0.1, nesterov=True)


def test_adam_rejects_bad_betas():
    param = Parameter(np.zeros(2))
    with pytest.raises(ValueError):
        Adam([param], lr=0.1, betas=(1.0, 0.999))


def test_zero_grad_via_optimizer():
    param = Parameter(np.ones(3))
    param.grad += 2.0
    optimizer = SGD([param], lr=0.1)
    optimizer.zero_grad()
    assert np.all(param.grad == 0)


def test_weight_decay_shrinks_weights():
    param = Parameter(np.ones(4) * 10.0)
    optimizer = SGD([param], lr=0.1, weight_decay=0.5)
    for _ in range(50):
        param.zero_grad()  # no data gradient, only decay
        optimizer.step()
    assert np.all(np.abs(param.data) < 10.0)


def test_adam_state_dict_roundtrip():
    param, _, compute_grad = quadratic_problem()
    optimizer = Adam([param], lr=0.1)
    for _ in range(5):
        compute_grad()
        optimizer.step()
    state = optimizer.state_dict()

    fresh_param = Parameter(param.data.copy())
    fresh = Adam([fresh_param], lr=0.1)
    fresh.load_state_dict(state)
    assert fresh.step_count == optimizer.step_count
    # One more identical step produces identical parameters.
    for opt, prm in ((optimizer, param), (fresh, fresh_param)):
        prm.grad[...] = 2.0 * (prm.data - np.array([1.0, -2.0, 3.0]))
        opt.step()
    assert np.allclose(param.data, fresh_param.data)


def test_sgd_momentum_state_dict_roundtrip():
    param, _, compute_grad = quadratic_problem()
    optimizer = SGD([param], lr=0.05, momentum=0.9)
    for _ in range(3):
        compute_grad()
        optimizer.step()
    state = optimizer.state_dict()
    fresh = SGD([Parameter(param.data.copy())], lr=0.05, momentum=0.9)
    fresh.load_state_dict(state)
    assert np.any(optimizer._velocity != 0)
    assert np.array_equal(fresh._velocity, optimizer._velocity)


def test_get_optimizer_by_name():
    param = Parameter(np.zeros(2))
    assert isinstance(get_optimizer("adamw", [param], lr=1e-3), AdamW)
    with pytest.raises(KeyError):
        get_optimizer("lbfgs", [param])


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
