"""The learning-rate schedule.

The paper halves the learning rate every 1 000 batches (scaled to the number
of GPUs so that the schedule tracks the number of *samples* seen) down to a
floor of 2.5e-4.  :class:`StepLR` with ``min_lr`` reproduces exactly that.
"""

from __future__ import annotations

from repro.nn.optim import Optimizer


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
    """Multiply the learning rate by ``gamma`` every ``step_size`` steps.

    ``min_lr`` clips the decayed value; the paper uses ``gamma=0.5`` every
    1 000 batches with a floor of 2.5e-4.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        step_size: int,
        gamma: float = 0.5,
        min_lr: float = 0.0,
    ) -> None:
        super().__init__(optimizer)
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        self.step_size = int(step_size)
        self.gamma = float(gamma)
        self.min_lr = float(min_lr)

    def get_lr(self) -> float:
        decays = self.last_step // self.step_size
        return max(self.base_lr * self.gamma**decays, self.min_lr)
