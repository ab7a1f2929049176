"""Base building blocks of the NumPy neural-network library.

The library follows the classical layer-graph design (as in torch.nn without
autograd): every :class:`Module` implements ``forward`` and ``backward``, where
``backward`` receives the gradient of the loss with respect to the module
output and must (i) accumulate parameter gradients and (ii) return the gradient
with respect to the module input.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.arena import ParameterArena

Array = np.ndarray


class Parameter:
    """A trainable tensor with an associated gradient buffer.

    Parameters
    ----------
    data:
        Initial value.  Stored as ``float64`` by default for numerically robust
        gradient checks; training at scale typically converts to ``float32``
        via :meth:`Module.astype`.

    ``name`` is a human-readable label, filled by :meth:`Module.named_parameters`.

    Once an optimizer or a flat-vector operation of :class:`Module` has placed
    the parameter in a :class:`~repro.nn.arena.ParameterArena`, ``data`` and
    ``grad`` are views into the arena's flat buffers and must only be written
    in place (``param.data[...] = value``), never rebound.
    """

    __slots__ = ("data", "grad", "name", "arena")

    def __init__(self, data: Array) -> None:
        self.data = np.asarray(data)
        self.grad = np.zeros_like(self.data)
        self.name = ""
        self.arena: Optional[ParameterArena] = None

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def zero_grad(self) -> None:
        """Reset the gradient buffer to zero (in place)."""
        self.grad[...] = 0.0

    def astype(self, dtype: np.dtype) -> None:
        """Convert data and gradient to ``dtype``.

        A real conversion moves the parameter out of its arena (the arena's
        buffers keep the old dtype), so an optimizer built before the
        conversion detects it at its next ``step`` and must be rebuilt.
        """
        if self.data.dtype == dtype:
            return
        self.data = self.data.astype(dtype)
        self.grad = self.grad.astype(dtype)
        self.arena = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter(name={self.name!r}, shape={self.data.shape}, dtype={self.data.dtype})"


class Module:
    """Base class of every layer and network.

    Sub-classes register parameters as attributes of type :class:`Parameter`
    and sub-modules as attributes of type :class:`Module`; both are discovered
    automatically by :meth:`parameters` and :meth:`named_parameters`.
    """

    #: ``(arena, start, stop)`` of this tree's parameters, resolved on first use
    #: by :meth:`_flat_span` so that the per-batch flat operations never walk
    #: the module tree.
    _span: Optional[Tuple[ParameterArena, int, int]] = None

    # ------------------------------------------------------------------ api
    def forward(self, inputs: Array) -> Array:
        raise NotImplementedError

    def backward(self, grad_output: Array) -> Array:
        raise NotImplementedError

    def __call__(self, inputs: Array) -> Array:
        return self.forward(inputs)

    # ------------------------------------------------------------- traversal
    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        """Iterate over direct sub-modules in attribute definition order."""
        for key, value in vars(self).items():
            if isinstance(value, Module):
                yield key, value
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{key}.{index}", item

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Iterate over ``(qualified_name, parameter)`` pairs, depth-first."""
        for key, value in vars(self).items():
            if isinstance(value, Parameter):
                name = f"{prefix}{key}"
                value.name = name
                yield name, value
        for child_name, child in self.named_children():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Parameter]:
        """List of all trainable parameters of the module tree."""
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------ cache
    def clear_cache(self) -> None:
        """Forget what the last ``forward`` cached for ``backward``, recursively.

        Layers that pin a batch-sized array override this; call it after a
        forward pass that will not be followed by a backward pass.
        """
        for _, child in self.named_children():
            child.clear_cache()

    def zero_grad(self) -> None:
        """Zero every parameter gradient of the module tree (one fill)."""
        self.flat_gradients().fill(0.0)

    def astype(self, dtype: np.dtype) -> "Module":
        """Convert every parameter to ``dtype`` and return self.

        Converted parameters leave their arena (see :meth:`Parameter.astype`):
        build optimizers after the conversion, not before.
        """
        for param in self.parameters():
            param.astype(dtype)
        return self

    # ------------------------------------------------------------ flat views
    def _flat_span(self) -> Tuple[ParameterArena, int, int]:
        """Arena and bounds of this tree's parameters, cached while the arena is intact.

        The module tree is walked only when the cache is empty or its arena was
        detached (``astype``, or an arena built over another parameter list);
        the parameters that were found then stay the tree's parameters, the
        same contract an optimizer has with the list it was given.
        """
        span = self._span
        if span is None or span[0].detached() is not None:
            span = self._span = ParameterArena.span_of(self.parameters())
        return span

    def flat_parameters(self) -> Array:
        """Every parameter value as one 1-D vector: a writable view, not a copy."""
        arena, start, stop = self._flat_span()
        return arena.data[start:stop]

    def flat_gradients(self) -> Array:
        """Every gradient as one 1-D vector: a writable view, not a copy."""
        arena, start, stop = self._flat_span()
        return arena.grad[start:stop]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        children = ", ".join(name for name, _ in self.named_children())
        return f"{type(self).__name__}({children})"
