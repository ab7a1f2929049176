"""Fully connected (dense) layer."""

from __future__ import annotations

import numpy as np

from repro.nn.init import get_initializer
from repro.nn.module import Module, Parameter
from repro.utils.seeding import derive_rng

Array = np.ndarray


class Linear(Module):
    """Affine transform ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input / output dimensions.
    bias:
        Whether to include the additive bias term.
    weight_init:
        Name of the weight initialiser (see :mod:`repro.nn.init`).
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
        bias: bool = True,
        weight_init: str = "he_normal",
        rng: np.random.Generator | None = None,
        dtype: np.dtype = np.float64,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.has_bias = bool(bias)

        if rng is None:
            rng = derive_rng("linear-init", in_features, out_features)
        init = get_initializer(weight_init)
        weight = init((self.in_features, self.out_features), rng).astype(dtype)
        self.weight = Parameter(weight)
        if self.has_bias:
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
            # The model boundary: float64 wire parameters enter a float32 model
            # here, once, as a (batch, in_features) array.  Without the cast the
            # GEMM would promote, re-casting the whole weight matrix on every
            # forward and backward call and making every later layer float64.
            inputs = inputs.astype(weight.dtype)
        self._cached_input = inputs
        output = inputs @ weight
        if self.has_bias:
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
        if self.has_bias:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data.T

    def clear_cache(self) -> None:
        self._cached_input = None

    def extra_repr(self) -> str:
        return f"in={self.in_features}, out={self.out_features}, bias={self.has_bias}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Linear({self.extra_repr()})"
