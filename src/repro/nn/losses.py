"""Regression losses with analytic gradients.

The paper's training loop minimises the mean squared error between the
predicted and the solver-produced temperature fields; MAE/Huber/relative-L2
are provided because they are commonly reported for PDE surrogates.
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


class L1Loss(Loss):
    """Mean absolute error."""

    def __init__(self) -> None:
        self._diff: Array | None = None

    def forward(self, predictions: Array, targets: Array) -> float:
        predictions, targets = self._validate(predictions, targets)
        self._diff = predictions - targets
        return float(np.mean(np.abs(self._diff)))

    def backward(self) -> Array:
        if self._diff is None:
            raise RuntimeError("backward called before forward on L1Loss")
        return np.sign(self._diff) / self._diff.size


class HuberLoss(Loss):
    """Huber loss: quadratic near zero, linear beyond ``delta``."""

    def __init__(self, delta: float = 1.0) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)
        self._diff: Array | None = None

    def forward(self, predictions: Array, targets: Array) -> float:
        predictions, targets = self._validate(predictions, targets)
        self._diff = predictions - targets
        abs_diff = np.abs(self._diff)
        quadratic = np.minimum(abs_diff, self.delta)
        linear = abs_diff - quadratic
        return float(np.mean(0.5 * quadratic**2 + self.delta * linear))

    def backward(self) -> Array:
        if self._diff is None:
            raise RuntimeError("backward called before forward on HuberLoss")
        return np.clip(self._diff, -self.delta, self.delta) / self._diff.size


class RelativeL2Loss(Loss):
    """Relative L2 error ``||pred - target||^2 / (||target||^2 + eps)`` per batch."""

    def __init__(self, eps: float = 1e-12) -> None:
        self.eps = float(eps)
        self._diff: Array | None = None
        self._denom: float = 1.0

    def forward(self, predictions: Array, targets: Array) -> float:
        predictions, targets = self._validate(predictions, targets)
        self._diff = predictions - targets
        self._denom = float(np.sum(targets**2) + self.eps)
        return float(np.sum(self._diff**2) / self._denom)

    def backward(self) -> Array:
        if self._diff is None:
            raise RuntimeError("backward called before forward on RelativeL2Loss")
        return 2.0 * self._diff / self._denom


_LOSSES = {
    "mse": MSELoss,
    "l1": L1Loss,
    "mae": L1Loss,
    "huber": HuberLoss,
    "relative_l2": RelativeL2Loss,
}


def get_loss(name: str) -> Loss:
    """Instantiate a loss by name."""
    try:
        return _LOSSES[name.lower()]()
    except KeyError as exc:
        raise KeyError(f"unknown loss {name!r}; available: {sorted(_LOSSES)}") from exc
