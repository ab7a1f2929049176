"""The learning-rate schedule.

The paper halves the learning rate every 1 000 batches (scaled to the number
of GPUs so that the schedule tracks the number of *samples* seen) down to a
floor of 2.5e-4.  :class:`StepLR` reproduces exactly that.
"""

from __future__ import annotations

from repro.nn.optim import Optimizer

#: Factor applied to the learning rate once per period (the paper halves it).
GAMMA = 0.5
#: Floor of the decayed learning rate (paper: 2.5e-4).
MIN_LR = 2.5e-4


class LRScheduler:
    """Base class: mutates ``optimizer.lr`` when :meth:`step` is called."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.last_step = 0

    def get_lr(self) -> float:
        """Learning rate that should be active after ``last_step`` steps."""
        raise NotImplementedError

    def step(self) -> float:
        """Advance the schedule by one step and update the optimizer."""
        self.last_step += 1
        self.optimizer.lr = self.get_lr()
        return self.optimizer.lr


class StepLR(LRScheduler):
    """Multiply the learning rate by :data:`GAMMA` every ``step_size`` steps,
    down to :data:`MIN_LR` (the paper: halved every 1 000 batches, floor 2.5e-4).
    """

    def __init__(self, optimizer: Optimizer, step_size: int) -> None:
        super().__init__(optimizer)
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.step_size = int(step_size)

    def get_lr(self) -> float:
        decays = self.last_step // self.step_size
        return max(self.base_lr * GAMMA**decays, MIN_LR)
