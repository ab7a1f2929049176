"""FIRO training buffer (first in, random out)."""

from __future__ import annotations

import numpy as np

from repro.buffers.base import TrainingBuffer
from repro.buffers.sampling import distinct_positions, move_to_edge
from repro.utils.seeding import derive_rng

Array = np.ndarray


class FIROBuffer(TrainingBuffer):
    """First-in random-out buffer with a minimum-population threshold.

    Behaviour (Section 3.2.3 of the paper):

    * newly received samples are appended at the end of a list;
    * samples are *evicted upon reading*, drawn from a uniformly random
      position, which de-biases batches relative to FIFO;
    * batches may only be extracted while the population exceeds the
      threshold; the threshold is set to zero once data production is over so
      the remaining samples can be consumed.

    Each sample is still seen exactly once, so the consumption rate cannot
    exceed the production rate in steady state — the limitation the Reservoir
    removes.

    Columnar layout: ``_perm`` is a permutation of the store's row slots whose
    first ``_count`` entries are live and whose remainder is free.  A put
    hands out the free slots next to the boundary; a draw picks distinct live
    positions, moves their slots to the end of the live region and pulls the
    boundary back over them (order within the live region is irrelevant
    because reads pick uniformly random positions anyway).
    """

    def __init__(self, capacity: int, threshold: int = 0, seed: int = 0) -> None:
        super().__init__(capacity=capacity, threshold=threshold)
        self._perm = np.arange(capacity, dtype=np.intp)
        self._count = 0
        self._rng = derive_rng("firo-buffer", seed)

    def _size_locked(self) -> int:
        return self._count

    def _can_put_locked(self) -> bool:
        return self._count < self.capacity

    def _can_get_locked(self) -> bool:
        if self._reception_over:
            # Threshold released at end of reception: drain whatever remains.
            return self._count > 0
        return self._count > self.threshold

    def _take_slots_locked(self, want: int) -> Array:
        start = self._count
        self._count = min(start + want, self.capacity)
        return self._perm[start : self._count]

    def _draw_slots_locked(self, max_count: int) -> Array:
        # Sequential uniform draws from the shrinking population are exactly a
        # uniform without-replacement sample, so the whole batch needs one
        # vectorized RNG call.  While reception is ongoing the population may
        # only be drawn down to the threshold.
        available = self._count if self._reception_over else self._count - self.threshold
        take = min(max_count, available)
        if take <= 0:
            return np.empty(0, dtype=np.intp)
        chosen = distinct_positions(self._rng, self._count, take)
        drawn = self._perm[chosen]
        move_to_edge(self._perm, chosen, self._count - take, self._count)
        self._count -= take
        return drawn
