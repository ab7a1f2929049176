"""Gradient checks for the layers, the activation and the loss."""

import numpy as np
import pytest

from nn_reference import gradient_check, numerical_gradient
from repro.nn import Linear, MSELoss, ReLU, Sequential


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_linear_forward_shape(rng):
    layer = Linear(5, 3, rng=rng)
    out = layer.forward(rng.random((7, 5)))
    assert out.shape == (7, 3)


def test_linear_accepts_single_vector(rng):
    layer = Linear(5, 3, rng=rng)
    out = layer.forward(rng.random(5))
    assert out.shape == (1, 3)


def test_linear_rejects_bad_input_size(rng):
    layer = Linear(5, 3, rng=rng)
    with pytest.raises(ValueError):
        layer.forward(rng.random((2, 4)))


def test_linear_backward_before_forward_raises(rng):
    layer = Linear(2, 2, rng=rng)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones((1, 2)))


def test_linear_gradcheck(rng):
    model = Sequential(Linear(4, 6, rng=rng))
    x = rng.random((3, 4))
    y = rng.random((3, 6))
    gradient_check(model, MSELoss(), x, y)


def test_mlp_gradcheck_relu(rng):
    model = Sequential(Linear(3, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
    # Shift inputs away from the ReLU kink so finite differences are clean.
    x = rng.random((4, 3)) + 0.5
    y = rng.random((4, 2))
    gradient_check(model, MSELoss(), x, y)


@pytest.mark.parametrize("loss_cls", [MSELoss])
def test_loss_gradients_match_numerical(rng, loss_cls):
    loss = loss_cls()
    pred = rng.standard_normal((5, 4)) * 2.0
    target = rng.standard_normal((5, 4))

    def scalar(p):
        return loss_cls().forward(p, target)

    loss.forward(pred, target)
    analytic = loss.backward()
    numerical = numerical_gradient(scalar, pred.copy())
    assert np.allclose(analytic, numerical, atol=1e-5)


def test_losses_reject_shape_mismatch():
    with pytest.raises(ValueError):
        MSELoss().forward(np.zeros((2, 3)), np.zeros((3, 2)))


def test_mse_loss_value():
    loss = MSELoss()
    value = loss.forward(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
    assert value == pytest.approx(2.5)


def test_relu_masks_negative_values():
    relu = ReLU()
    out = relu.forward(np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, np.array([[0.0, 2.0]]))
    grad = relu.backward(np.array([[5.0, 5.0]]))
    assert np.array_equal(grad, np.array([[0.0, 5.0]]))

