"""Validation of the surrogate on held-out simulations.

The paper's validation set is 10 simulations generated offline and never seen
during training; validation runs every 100 batches on the training thread (and
therefore stalls batch consumption, a perturbation the experiments discuss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

    @property
    def num_samples(self) -> int:
        return int(self.inputs.shape[0])

    @staticmethod
    def from_simulations(
        parameter_vectors: Sequence[Array],
        times: Sequence[Array],
        fields: Sequence[Array],
    ) -> "ValidationSet":
        """Build a validation set from per-simulation arrays.

        ``parameter_vectors[i]`` is the 5-vector ``X`` of simulation ``i``;
        ``times[i]`` the array of time values; ``fields[i]`` the stacked
        flattened fields of shape ``(num_steps, field_size)``.
        """
        inputs = []
        targets = []
        for params, sim_times, sim_fields in zip(parameter_vectors, times, fields, strict=True):
            params = np.asarray(params, dtype=np.float32).ravel()
            sim_fields = np.asarray(sim_fields, dtype=np.float32)
            sim_fields = sim_fields.reshape(sim_fields.shape[0], -1)
            for time_value, field in zip(np.asarray(sim_times), sim_fields, strict=True):
                inputs.append(np.concatenate([params, [np.float32(time_value)]]))
                targets.append(field)
        return ValidationSet(inputs=np.stack(inputs), targets=np.stack(targets))


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
