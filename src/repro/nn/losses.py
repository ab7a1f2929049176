"""The training objective: mean squared error with its analytic gradient.

The paper's training loop minimises the mean squared error between the
predicted and the solver-produced temperature fields.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


class Loss:
    """Base class: ``forward`` returns a scalar, ``backward`` d(loss)/d(pred)."""

    def forward(self, predictions: Array, targets: Array) -> float:
        raise NotImplementedError

    def backward(self) -> Array:
        raise NotImplementedError

    def __call__(self, predictions: Array, targets: Array) -> float:
        return self.forward(predictions, targets)

    def clear_cache(self) -> None:
        """Forget the residual of the last ``forward`` (nothing to back-propagate)."""
        self._diff = None

    @staticmethod
    def _validate(predictions: Array, targets: Array) -> tuple[Array, Array]:
        predictions = np.asarray(predictions)
        targets = np.asarray(targets)
        if predictions.shape != targets.shape:
            raise ValueError(
                f"predictions and targets must have the same shape, got "
                f"{predictions.shape} vs {targets.shape}"
            )
        return predictions, targets


class MSELoss(Loss):
    """Mean squared error averaged over every element."""

    def __init__(self) -> None:
        self._diff: Array | None = None

    def forward(self, predictions: Array, targets: Array) -> float:
        predictions, targets = self._validate(predictions, targets)
        diff = self._diff = predictions - targets
        flat = diff.reshape(-1)
        # A dot product of the residual with itself: no squared temporary.
        return float(np.dot(flat, flat) / flat.size)

    def backward(self) -> Array:
        """Gradient with respect to the predictions of the last ``forward``.

        The residual the loss owns is scaled in place and handed to the caller,
        so each ``forward`` supports one ``backward``.
        """
        if self._diff is None:
            raise RuntimeError("backward called before forward on MSELoss")
        grad, self._diff = self._diff, None
        grad *= 2.0 / grad.size
        return grad
