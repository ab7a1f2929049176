"""The Reservoir training buffer (Algorithm 1 of the paper).

The Reservoir distinguishes *unseen* samples (never selected in a batch) from
*seen* ones.  Compared to FIFO/FIRO it:

* lets data be selected more than once, so the consumer never starves while
  waiting for fresh data (throughput);
* always accepts newly produced data while the number of unseen samples is
  below capacity, evicting an already-seen sample when full, so no unseen
  sample is ever discarded (diversity);
* draws batch elements uniformly, with replacement, over the union of seen and
  unseen samples, moving each freshly selected unseen sample into the seen
  list;
* blocks batch extraction until the population exceeds the threshold, and
  lifts the blocking once data reception is over, after which samples are
  removed as they are drawn until the buffer empties out and training stops.

Columnar layout: ``_perm`` is one permutation of the store's row slots split
by two integers into ``seen | unseen | free`` (positions ``[0, _seen)``,
``[_seen, _seen + _unseen)`` and the rest).  A put hands out the free slots
next to the unseen region; an eviction moves uniformly chosen seen slots to the
end of the seen region and pulls the boundary back over them, which makes them
the first unseen slots — the ones the put then writes; a first selection moves
the slot the other way across the same boundary; a drain-mode draw moves its
slots to the end of the unseen region, next to the free ones.  All of it is
:func:`~repro.buffers.sampling.move_to_edge` on positions drawn with one
vectorized RNG call, so the draw stream differs from a per-sample
implementation's while the distribution (Algorithm 1) is the same.
"""

from __future__ import annotations

import numpy as np

from repro.buffers.base import TrainingBuffer
from repro.buffers.sampling import distinct_positions, move_to_edge, uniform_positions
from repro.utils.seeding import derive_rng

Array = np.ndarray


class ReservoirBuffer(TrainingBuffer):
    """Training reservoir with seen/unseen bookkeeping (paper Algorithm 1)."""

    def __init__(self, capacity: int, threshold: int = 0, seed: int = 0) -> None:
        super().__init__(capacity=capacity, threshold=threshold)
        self._perm = np.arange(capacity, dtype=np.intp)
        self._seen = 0
        self._unseen = 0
        self._rng = derive_rng("reservoir-buffer", seed)
        # Counters used by the experiments.
        self.evicted_seen = 0
        self.repeated_reads = 0

    # ----------------------------------------------------------- inspection
    @property
    def num_seen(self) -> int:
        with self._lock:
            return self._seen

    @property
    def num_unseen(self) -> int:
        with self._lock:
            return self._unseen

    def _size_locked(self) -> int:
        return self._seen + self._unseen

    def _snapshot_locked(self) -> dict:
        return {
            "num_seen": self._seen,
            "num_unseen": self._unseen,
            "evicted_seen": self.evicted_seen,
            "repeated_reads": self.repeated_reads,
        }

    # ------------------------------------------------------------------- put
    def _can_put_locked(self) -> bool:
        # Block only when the buffer is full of *unseen* samples: evicting one
        # of them would discard data never used for training (Algorithm 1,
        # lines 21-22).
        return self._unseen < self.capacity

    def _take_slots_locked(self, want: int) -> Array:
        # Per-sample semantics: each insert beyond a full buffer evicts one
        # uniformly random *seen* sample; sequential uniform evictions from the
        # shrinking seen region are a uniform without-replacement set, so all
        # victims are picked with one vectorized RNG call (lines 24-26).
        count = min(want, self.capacity - self._unseen)
        end = self._seen + self._unseen
        evictions = count - (self.capacity - end)
        if evictions <= 0:
            self._unseen += count
            return self._perm[end : end + count]
        victims = distinct_positions(self._rng, self._seen, evictions)
        self._seen -= evictions
        move_to_edge(self._perm, victims, self._seen, self._seen + evictions)
        self._unseen += count
        self.evicted_seen += evictions
        if evictions == count:
            return self._perm[self._seen : self._seen + count]
        # The put that fills the buffer: the last free slots plus the victims.
        return np.concatenate((self._perm[end:], self._perm[self._seen : self._seen + evictions]))

    # ------------------------------------------------------------------- get
    def _can_get_locked(self) -> bool:
        total = self._seen + self._unseen
        if self._reception_over:
            # Threshold lifted once reception is over (Section 3.2.3).
            return total > 0
        return total > self.threshold

    def _draw_slots_locked(self, max_count: int) -> Array:
        total = self._seen + self._unseen
        if self._reception_over:
            # Drain mode: every draw removes its sample, so sequential uniform
            # draws are a uniform without-replacement sample of the snapshot.
            chosen = distinct_positions(self._rng, total, min(max_count, total))
            return self._remove_locked(chosen)
        # Reception ongoing: draws never shrink the population (unseen samples
        # merely move to the seen region), so the batch is iid uniform *with*
        # replacement over a fixed snapshot — one vectorized RNG call.  A
        # repeat of an unseen sample counts as a repeated read from its second
        # occurrence on.  The returned slot array may therefore contain
        # duplicates.
        chosen = uniform_positions(self._rng, total, max_count)
        drawn = self._perm[chosen]
        self.repeated_reads += max_count - self._mark_seen_locked(chosen)
        return drawn

    def _mark_seen_locked(self, chosen: Array) -> int:
        """Move the unseen slots among the ascending positions ``chosen``
        (repeats allowed) into the seen region; returns how many there were."""
        if not self._unseen or chosen[-1] < self._seen:
            return 0
        fresh = chosen[chosen.searchsorted(self._seen) :]
        if len(fresh) > 1 and np.count_nonzero(fresh[1:] == fresh[:-1]):
            fresh = np.unique(fresh)
        count = len(fresh)
        move_to_edge(self._perm, fresh, self._seen, self._seen + count)
        self._seen += count
        self._unseen -= count
        return count

    def _remove_locked(self, chosen: Array) -> Array:
        """Free the slots at the distinct ascending positions ``chosen`` (a
        scratch array, overwritten) and return them."""
        drawn = self._perm[chosen]
        end = self._seen + self._unseen
        if self._seen and chosen[0] < self._seen:
            # As for an eviction: the chosen seen slots become the first
            # unseen ones, then leave together with the chosen unseen slots.
            count = int(chosen.searchsorted(self._seen))
            self._seen -= count
            move_to_edge(self._perm, chosen[:count], self._seen, self._seen + count)
            self.repeated_reads += count
            chosen[:count] = np.arange(self._seen, self._seen + count)
        move_to_edge(self._perm, chosen, end - len(chosen), end)
        self._unseen = end - len(chosen) - self._seen
        return drawn
