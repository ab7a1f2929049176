"""The surrogate's hidden activation, with an explicit backward pass."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

Array = np.ndarray


class ReLU(Module):
    """Rectified linear unit: ``max(x, 0)``."""

    def __init__(self) -> None:
        self._mask: Array | None = None

    def forward(self, inputs: Array) -> Array:
        inputs = np.asarray(inputs)
        self._mask = inputs > 0
        return np.where(self._mask, inputs, 0.0)

    def backward(self, grad_output: Array) -> Array:
        if self._mask is None:
            raise RuntimeError("backward called before forward on ReLU")
        return np.where(self._mask, grad_output, 0.0)
