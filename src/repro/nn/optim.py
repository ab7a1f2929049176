"""The optimizer: Adam, as in the paper (initial learning rate 1e-3).

An optimizer works on the flat vectors of a
:class:`repro.nn.arena.ParameterArena`: constructing one places its parameters
in an arena (sharing the model's when there is one), the per-slot state
(the two moments) is flat too, and ``step`` is a fixed sequence of in-place
ufuncs over those vectors — no per-parameter loop and no parameter-sized
temporary.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.arena import ParameterArena
from repro.nn.module import Parameter

Array = np.ndarray


#: Elements updated per pass of ``step``.  The update is a dozen element-wise
#: passes over five vectors; in blocks this size every pass after the first
#: hits cache instead of streaming the whole model from memory each time.
_BLOCK = 65_536

#: Adam's decay rates of the first and second moment estimates.
BETAS = (0.9, 0.999)
#: Adam's denominator floor.
EPS = 1e-8


class Optimizer:
    """Base optimizer over a list of parameters.

    Sub-classes allocate their flat state with :meth:`_state_vector`, call
    :meth:`_bind_blocks` once with it, and write ``step`` as a loop over the
    bound blocks.
    """

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self.step_count = 0
        self._state: Tuple[Array, ...] = ()
        self._blocks: List[Tuple[Array, ...]] = []
        self._attach(ParameterArena.span_of(self.parameters))

    # ----------------------------------------------------------------- arena
    def _attach(self, span: Tuple[ParameterArena, int, int]) -> None:
        self._arena, start, stop = span
        self._data = self._arena.data[start:stop]
        self._grad = self._arena.grad[start:stop]

    def _state_vector(self) -> Array:
        """A zeroed flat buffer aligned with the managed parameters."""
        return np.zeros_like(self._data)

    def _bind_blocks(self, *state: Array) -> None:
        """Precompute, per block, views of ``(data, grad, *state, scratch)``."""
        self._state = state
        size = self._data.size
        scratch = np.empty(min(size, _BLOCK), dtype=self._data.dtype)
        self._blocks = []
        for start in range(0, size, _BLOCK):
            block = slice(start, min(start + _BLOCK, size))
            width = block.stop - block.start
            self._blocks.append(
                (self._data[block], self._grad[block])
                + tuple(vector[block] for vector in state)
                + (scratch[:width],)
            )

    def _follow_parameters(self) -> None:
        """Make sure ``_data`` / ``_grad`` still are the buffers the layers read.

        When the parameters were moved, as a block, into another arena of the
        same dtype (the model's first flat operation re-homes parameters an
        optimizer over a sub-list had placed), the optimizer follows them.
        Anything else — ``astype``, a differently ordered list, a rebound
        ``data`` — would train detached copies, so it is an error.
        """
        stray = self._arena.detached()
        if stray is not None:
            span = ParameterArena.find_span(self.parameters)
            if span is None or span[0].data.dtype != self._data.dtype:
                raise RuntimeError(
                    f"parameter {stray.name!r} no longer lives in this optimizer's arena: it "
                    "was converted with astype(), rebound, or re-homed by an arena built over "
                    "a differently ordered parameter list after the optimizer was created; "
                    "build the optimizer last"
                )
            self._attach(span)
            self._bind_blocks(*self._state)

    def _begin_step(self) -> None:
        self._follow_parameters()
        self.step_count += 1

    def step(self) -> None:
        """Apply one update using the gradients currently stored in the parameters."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Zero the gradients of every managed parameter (one fill)."""
        self._follow_parameters()
        self._grad.fill(0.0)


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with bias-corrected moment estimates."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-3) -> None:
        super().__init__(parameters, lr)
        self._m = self._state_vector()
        self._v = self._state_vector()
        self._bind_blocks(self._m, self._v)

    def step(self) -> None:
        self._begin_step()
        beta1, beta2 = BETAS
        # data -= lr * (m / bias1) / (sqrt(v / bias2) + eps), with both bias
        # corrections folded into two scalars so the block needs no m_hat/v_hat.
        root_bias2 = (1.0 - beta2**self.step_count) ** 0.5
        step_size = self.lr * root_bias2 / (1.0 - beta1**self.step_count)
        eps = EPS * root_bias2
        for data, grad, m, v, update in self._blocks:
            m *= beta1
            np.multiply(grad, 1.0 - beta1, out=update)
            m += update
            v *= beta2
            np.multiply(grad, grad, out=update)
            update *= 1.0 - beta2
            v += update
            np.sqrt(v, out=update)
            update += eps
            np.divide(m, update, out=update)
            update *= step_size
            data -= update
