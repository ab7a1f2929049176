"""Flat parameter arena: every parameter and gradient of a model in two vectors.

A :class:`ParameterArena` re-homes the ``data`` and ``grad`` arrays of a list of
:class:`~repro.nn.module.Parameter` objects as views into two contiguous 1-D
buffers, in list order.  The layers keep reading and writing ``param.data`` /
``param.grad`` exactly as before (the views have the parameters' shapes), while
everything that treats the model as one vector — ``zero_grad``, the optimizer
update, the data-parallel all-reduce, the parameter broadcast — runs over the
flat buffers with no per-parameter loop, no concatenate and no scatter.

Ownership rule: once a parameter lives in an arena **nobody rebinds**
``param.data`` or ``param.grad``; values are written in place
(``param.data[...] = value``).  The two sanctioned re-homings are building
another arena over the parameter and :meth:`Parameter.astype`; both leave the
previous arena *detached*, which :meth:`ParameterArena.detached` reports so
that holders of the old buffers (optimizers, a module's cached span) follow
the parameters or fail loudly instead of updating memory no layer reads.

The arena is also the single object a future array backend has to own to make
training device-resident (ROADMAP item 4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.nn.module import Parameter

Array = np.ndarray


class ParameterArena:
    """Two flat buffers (values, gradients) holding ``parameters`` back to back.

    Building the arena copies the current values and gradients into the
    buffers and rebinds every parameter to its view.  An arena has one dtype:
    parameters of mixed float dtypes are promoted to their common type.
    """

    def __init__(self, parameters: Sequence["Parameter"]) -> None:
        self.parameters: List["Parameter"] = list(parameters)
        if len({id(param) for param in self.parameters}) != len(self.parameters):
            raise ValueError("a parameter appears more than once in the parameter list")
        self.offsets: List[int] = [0]
        for param in self.parameters:
            self.offsets.append(self.offsets[-1] + param.size)
        dtype = (
            np.result_type(*(param.data.dtype for param in self.parameters))
            if self.parameters
            else np.dtype(np.float64)
        )
        self.data: Array = np.empty(self.offsets[-1], dtype=dtype)
        self.grad: Array = np.empty(self.offsets[-1], dtype=dtype)
        for index, param in enumerate(self.parameters):
            start, stop = self.offsets[index], self.offsets[index + 1]
            data = self.data[start:stop].reshape(param.data.shape)
            grad = self.grad[start:stop].reshape(param.data.shape)
            data[...] = param.data
            grad[...] = param.grad
            param.data, param.grad, param.arena = data, grad, self

    @property
    def size(self) -> int:
        """Number of scalars in each buffer."""
        return self.offsets[-1]

    def detached(self) -> Optional["Parameter"]:
        """The first parameter whose arrays are no longer views of this arena.

        ``None`` while the arena is intact.  A parameter detaches when it is
        converted with ``astype``, when another arena re-homes it, or when
        someone breaks the ownership rule and rebinds ``data`` / ``grad``.
        """
        data, grad = self.data, self.grad
        for param in self.parameters:
            if param.data.base is not data or param.grad.base is not grad:
                return param
        return None

    @classmethod
    def find_span(
        cls, parameters: Sequence["Parameter"]
    ) -> Optional[Tuple["ParameterArena", int, int]]:
        """``(arena, start, stop)`` when ``parameters`` are a run of an intact arena.

        The parameters must be contiguous and in order in the arena, so that
        ``arena.data[start:stop]`` holds exactly them; ``None`` otherwise.
        """
        parameters = list(parameters)
        arena = parameters[0].arena if parameters else None
        if arena is None or arena.detached() is not None:
            return None
        first = arena.parameters.index(parameters[0])  # Parameter equality is identity
        last = first + len(parameters)
        if arena.parameters[first:last] != parameters:
            return None
        return arena, arena.offsets[first], arena.offsets[last]

    @classmethod
    def span_of(cls, parameters: Sequence["Parameter"]) -> Tuple["ParameterArena", int, int]:
        """Like :meth:`find_span`, building an arena over ``parameters`` when there is none.

        Sharing comes first: a sub-module or a second optimizer gets a slice of
        the arena of the model around it and never steals its parameters.  A
        new arena detaches the parameters from wherever they lived before.
        """
        span = cls.find_span(parameters)
        if span is None:
            arena = cls(parameters)
            span = (arena, 0, arena.size)
        return span
