"""Validation of the surrogate on held-out simulations.

The paper's validation set is 10 simulations generated offline and never seen
during training; validation runs every 100 batches on the training thread (and
therefore stalls batch consumption, a perturbation the experiments discuss).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.losses import MSELoss
from repro.nn.module import Module

Array = np.ndarray


@dataclass
class ValidationSet:
    """Inputs/targets of the held-out simulations, as dense arrays."""

    inputs: Array
    targets: Array

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float32)
        self.targets = np.asarray(self.targets, dtype=np.float32)
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"inputs and targets disagree on the number of samples: "
                f"{self.inputs.shape[0]} vs {self.targets.shape[0]}"
            )
        if self.inputs.shape[0] == 0:
            raise ValueError("validation set is empty")


class Validator:
    """Evaluate a model on a validation set in mini-batches."""

    def __init__(self, dataset: ValidationSet, batch_size: int = 64) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.loss = MSELoss()
        self.batch_size = int(batch_size)

    def evaluate(self, model: Module) -> float:
        """Mean MSE of ``model`` over the validation set (forward passes only)."""
        total = 0.0
        count = 0
        inputs, targets = self.dataset.inputs, self.dataset.targets
        for start in range(0, inputs.shape[0], self.batch_size):
            stop = min(start + self.batch_size, inputs.shape[0])
            predictions = model.forward(inputs[start:stop])
            batch_loss = self.loss.forward(predictions, targets[start:stop])
            total += batch_loss * (stop - start)
            count += stop - start
        # Evaluation never runs backward: do not keep its last batch alive.
        model.clear_cache()
        self.loss.clear_cache()
        return total / count
