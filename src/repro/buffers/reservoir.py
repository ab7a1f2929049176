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
the slot the other way across the same boundary.  All of it is
:func:`~repro.buffers.sampling.move_to_edge` on positions drawn with one
vectorized RNG call, so the draw stream differs from a per-sample
implementation's while the distribution (Algorithm 1) is the same.

Drain mode keeps one shuffled order instead: the first drain draw (and the
first after a put) shuffles each region in place, and every draw then takes
a hypergeometric split of its batch off the two regions' tails, so a draw
costs O(batch) whatever the population.
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
        # True while both regions are in the uniformly random order a drain
        # draw takes its tails from; every put clears it.
        self._drain_shuffled = False
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
        self._drain_shuffled = False
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
        if self._reception_over:
            return self._drain_locked(min(max_count, self._seen + self._unseen))
        # Reception ongoing: draws never shrink the population (unseen samples
        # merely move to the seen region), so the batch is iid uniform *with*
        # replacement over a fixed snapshot — one vectorized RNG call.  A
        # repeat of an unseen sample counts as a repeated read from its second
        # occurrence on.  The returned slot array may therefore contain
        # duplicates.
        chosen = uniform_positions(self._rng, self._seen + self._unseen, max_count)
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

    def _drain_locked(self, count: int) -> Array:
        """Remove ``count`` uniformly chosen live slots and return them, sorted.

        Both regions are kept in a uniformly random order from the first
        drain draw on, so the tail of each is a uniform pick from it: the
        draw takes a hypergeometric number ``s`` of seen slots and
        ``count - s`` unseen ones off the two tails — a uniform
        ``count``-subset of the live slots, as sequential uniform draws of
        one removed sample each would give.  Closing the gap rewrites at most
        ``2 s`` entries of ``_perm``, a rearrangement fixed by the counts
        alone, so every region's order stays uniformly random.
        """
        perm, seen, unseen = self._perm, self._seen, self._unseen
        if not self._drain_shuffled:
            # Once per drain, and again only after a put changed the regions.
            self._rng.shuffle(perm[:seen])
            self._rng.shuffle(perm[seen : seen + unseen])
            self._drain_shuffled = True
        if seen and unseen:
            taken = int(self._rng.hypergeometric(seen, unseen, count))
        else:
            taken = min(seen, count)
        end = seen + unseen
        left = end - count + taken  # the unseen survivors are perm[seen:left]
        drawn = np.concatenate((perm[seen - taken : seen], perm[left:end]))
        # Close the gap the seen tail leaves: the last ``moved`` unseen
        # survivors fill its head, and drawn seen slots take their place.
        moved = min(taken, left - seen)
        if moved:
            perm[seen - taken : seen - taken + moved] = perm[left - moved : left]
            perm[left - moved : left] = drawn[:moved]
        drawn.sort()
        self._seen = seen - taken
        self._unseen = unseen - count + taken
        self.repeated_reads += taken
        return drawn
