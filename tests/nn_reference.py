"""Finite-difference gradient check: the reference the backprop tests compare against."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn import Loss, Module

Array = np.ndarray


def numerical_gradient(f: Callable[[Array], float], x: Array, eps: float = 1e-6) -> Array:
    """Central-difference numerical gradient of scalar ``f`` with respect to ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for index in range(flat_x.size):
        original = flat_x[index]
        flat_x[index] = original + eps
        plus = f(x)
        flat_x[index] = original - eps
        minus = f(x)
        flat_x[index] = original
        flat_g[index] = (plus - minus) / (2.0 * eps)
    return grad


def gradient_check(
    model: Module,
    loss: Loss,
    inputs: Array,
    targets: Array,
    eps: float = 1e-6,
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> float:
    """Compare backprop gradients of ``model`` against finite differences.

    Returns the maximum absolute deviation and raises ``AssertionError`` when
    the analytic and numerical gradients disagree beyond ``atol + rtol * |num|``.
    The model must use float64 parameters for the comparison to be meaningful.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)

    model.zero_grad()
    predictions = model.forward(inputs)
    loss.forward(predictions, targets)
    model.backward(loss.backward())

    max_error = 0.0
    for name, param in model.named_parameters():
        analytic = param.grad.copy()

        def objective(values: Array, _param=param) -> float:
            backup = _param.data.copy()
            _param.data[...] = values
            out = model.forward(inputs)
            value = loss.forward(out, targets)
            _param.data[...] = backup
            return value

        numerical = numerical_gradient(objective, param.data.copy(), eps=eps)
        deviation = np.abs(analytic - numerical)
        tolerance = atol + rtol * np.abs(numerical)
        if np.any(deviation > tolerance):
            worst = float(deviation.max())
            raise AssertionError(
                f"gradient check failed for parameter {name}: max deviation {worst:.3e}"
            )
        max_error = max(max_error, float(deviation.max()))
    return max_error
