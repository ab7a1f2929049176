"""FIFO training buffer (pure streaming baseline)."""

from __future__ import annotations

import numpy as np

from repro.buffers.base import TrainingBuffer

Array = np.ndarray


class FIFOBuffer(TrainingBuffer):
    """First-in first-out buffer.

    Data are batched for training in exactly the order they are received, and
    each sample is seen once and only once.  Production blocks when the buffer
    is full; consumption blocks when it is empty.  This is the paper's
    streaming baseline whose throughput tracks the instantaneous data
    production rate.

    Columnar layout: the live rows form a ring over the store's slots — two
    integers (``head``, ``count``) replace the deque, and a put or get is
    pure index arithmetic (a wrapped ``arange`` of slots).
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity=capacity, threshold=0)
        self._head = 0
        self._count = 0

    def _size_locked(self) -> int:
        return self._count

    def _can_put_locked(self) -> bool:
        return self._count < self.capacity

    def _can_get_locked(self) -> bool:
        return self._count > 0

    def _take_slots_locked(self, want: int) -> Array:
        take = min(want, self.capacity - self._count)
        tail = self._head + self._count
        slots = np.arange(tail, tail + take, dtype=np.intp) % self.capacity
        self._count += take
        return slots

    def _draw_slots_locked(self, max_count: int) -> Array:
        take = min(max_count, self._count)
        slots = np.arange(self._head, self._head + take, dtype=np.intp) % self.capacity
        self._head = (self._head + take) % self.capacity
        self._count -= take
        return slots
