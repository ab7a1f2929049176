"""Module containers."""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.nn.module import Module

Array = np.ndarray


class Sequential(Module):
    """Chain of modules applied in order; backward runs in reverse order."""

    def __init__(self, *modules: Module) -> None:
        self.layers: List[Module] = list(modules)

    def append(self, module: Module) -> "Sequential":
        """Append a module and return self (builder style)."""
        self.layers.append(module)
        self._span = None  # the cached flat span predates the new layer's parameters
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def forward(self, inputs: Array) -> Array:
        output = inputs
        for layer in self.layers:
            output = layer.forward(output)
        return output

    def backward(self, grad_output: Array) -> Array:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential({inner})"
