"""Fully connected (dense) layer."""

from __future__ import annotations

import math

import numpy as np

from repro.nn.module import Module, Parameter
from repro.utils.seeding import derive_rng

Array = np.ndarray


class Linear(Module):
    """Affine transform ``y = x @ W + b``.

    The weights are drawn He-normal, N(0, 2 / in_features) — the gain for the
    ReLU that follows every hidden layer of the surrogate — and the bias
    starts at zero.

    Parameters
    ----------
    in_features, out_features:
        Input / output dimensions.
    rng:
        Random generator used to draw the initial weights.  When ``None`` a
        generator derived from the layer shape is used, which keeps layer
        initialisation reproducible but independent across layers.
    dtype:
        Parameter dtype, ``float64`` by default (tests use exact gradient
        checks); training code converts models to float32.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        dtype: np.dtype = np.float64,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)

        if rng is None:
            rng = derive_rng("linear-init", in_features, out_features)
        std = math.sqrt(2.0 / self.in_features)
        weight = rng.normal(0.0, std, size=(self.in_features, self.out_features))
        self.weight = Parameter(weight.astype(dtype))
        self.bias = Parameter(np.zeros(self.out_features, dtype=dtype))

        self._cached_input: Array | None = None

    def forward(self, inputs: Array) -> Array:
        inputs = np.asarray(inputs)
        if inputs.ndim == 1:
            inputs = inputs[None, :]
        if inputs.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected input of size {self.in_features}, got {inputs.shape[-1]}"
            )
        weight = self.weight.data
        if inputs.dtype != weight.dtype and inputs.dtype.kind == "f":
            # The data plane rounds the float64 wire parameters to float32 once,
            # at the decode; this cast serves other callers (a float64 array fed
            # to a float32 model).  Without it the GEMM would promote, re-casting
            # the whole weight matrix on every forward and backward call and
            # making every later layer float64.
            inputs = inputs.astype(weight.dtype)
        self._cached_input = inputs
        output = inputs @ weight
        output += self.bias.data
        return output

    def backward(self, grad_output: Array) -> Array:
        if self._cached_input is None:
            raise RuntimeError("backward called before forward on Linear layer")
        grad_output = np.asarray(grad_output)
        inputs = self._cached_input
        # Accumulate (do not overwrite) so gradient accumulation across
        # micro-batches works; optimizers call zero_grad between steps.
        self.weight.grad += inputs.T @ grad_output
        self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data.T

    def clear_cache(self) -> None:
        self._cached_input = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Linear(in={self.in_features}, out={self.out_features})"
