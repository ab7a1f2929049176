"""Buffer statistics: sample-occurrence tracking and residency-time analysis.

* :class:`OccurrenceTracker` produces the histogram of Figure 3 (how many
  times each simulation time step appears in training batches).
* :func:`expected_residency_time` is the analytic result of Appendix A: the
  expected number of insertions a sample survives in a container of capacity
  ``n`` with random-overwrite insertion is ``n - 1``.
* :func:`measure_residency_times` measures it empirically, used by the
  property tests and the residency benchmark.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.utils.seeding import derive_rng


class OccurrenceTracker:
    """Counts how many times each ``(source_id, time_step)`` key appears in
    training batches.

    Columnar like the batches it is fed: :meth:`record_columns` appends the
    id and step columns to a growing int64 block.  The block is folded into
    sorted unique keys with their counts when the histogram is read or the
    pending rows outnumber both :data:`_FOLD_AT` and the keys already
    folded: one ``lexsort`` that sorts the block in place and one
    run-length pass, exact for any int64 pair, then one more of each to
    merge with the keys folded before.  Recording therefore costs two slice
    copies per batch, and the pending block stays within 16 bytes per row of
    that bound.
    """

    _FOLD_AT = 1 << 18

    def __init__(self) -> None:
        self._keys = np.empty((2, 0), dtype=np.int64)  # lexicographically sorted, unique
        self._counts = np.empty(0, dtype=np.int64)
        self._pending = np.empty((2, 1024), dtype=np.int64)
        self._num_pending = 0

    def record_columns(self, source_ids: np.ndarray, time_steps: np.ndarray) -> None:
        """Record every ``(source_id, time_step)`` key of a columnar batch."""
        start = self._num_pending
        stop = start + len(source_ids)
        if stop > self._pending.shape[1]:
            grown = np.empty((2, max(stop, 2 * self._pending.shape[1])), dtype=np.int64)
            grown[:, :start] = self._pending[:, :start]
            self._pending = grown
        self._pending[0, start:stop] = source_ids
        self._pending[1, start:stop] = time_steps
        self._num_pending = stop
        if stop >= max(self._FOLD_AT, self._counts.size):
            self._fold()

    def _fold(self) -> None:
        """Merge the pending rows into the sorted unique keys and counts."""
        if not self._num_pending:
            return
        keys, counts = _sorted_runs(self._pending[:, : self._num_pending])
        self._num_pending = 0
        if self._counts.size:
            keys, counts = _sorted_runs(
                np.concatenate((self._keys, keys), axis=1), np.concatenate((self._counts, counts))
            )
        self._keys, self._counts = keys, counts

    def histogram(self) -> Dict[int, int]:
        """Mapping occurrence-count -> number of samples seen that many times.

        This is exactly the data plotted in the paper's Figure 3.
        """
        self._fold()
        values, samples = np.unique(self._counts, return_counts=True)
        return dict(zip(values.tolist(), samples.tolist()))


def _sorted_runs(rows: np.ndarray, weights: np.ndarray | None = None):
    """The unique ``(rows[0], rows[1])`` keys, lexicographically sorted, with
    how often each occurs — or, given ``weights``, the sum of its weights.

    ``rows`` (and ``weights``) are sorted in place through one scratch
    vector, so beyond the result the pass allocates only the sort order and
    the run boundaries.
    """
    size = rows.shape[1]
    order = np.lexsort((rows[1], rows[0]))
    scratch = np.empty(size, dtype=np.int64)
    for column in (rows[0], rows[1]) if weights is None else (rows[0], rows[1], weights):
        np.take(column, order, out=scratch)
        column[:] = scratch
    del order, scratch
    first = np.empty(size, dtype=bool)
    first[0] = True
    np.not_equal(rows[0, 1:], rows[0, :-1], out=first[1:])
    first[1:] |= rows[1, 1:] != rows[1, :-1]
    starts = np.flatnonzero(first)
    del first
    keys = rows[:, starts]
    if weights is not None:
        return keys, np.add.reduceat(weights, starts)
    counts = np.empty(len(starts), dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = size - starts[-1]
    return keys, counts


def expected_residency_time(capacity: int) -> float:
    """Appendix A: expected number of insertions a sample survives is ``n - 1``."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    return float(capacity - 1)


def measure_residency_times(
    capacity: int,
    num_insertions: int,
    seed: int = 0,
) -> np.ndarray:
    """Empirical residency times of the random-overwrite insertion process.

    Simulates the Appendix A process: a container of ``capacity`` slots where
    each new item overwrites a uniformly random slot, and returns the number of
    subsequent insertions each evicted item survived.  Items still in the
    container at the end are not counted (their residency is censored), which
    matches the appendix's asymptotic setting ``m >> n``.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if num_insertions <= 0:
        raise ValueError("num_insertions must be positive")
    rng = derive_rng("residency-measure", capacity, seed)
    birth = np.full(capacity, -1, dtype=np.int64)
    residencies: List[int] = []
    for step in range(num_insertions):
        slot = int(rng.integers(capacity))
        if birth[slot] >= 0:
            # The item survived the insertions strictly between its own and the
            # one evicting it, matching the paper's definition of p(k).
            residencies.append(step - int(birth[slot]) - 1)
        birth[slot] = step
    return np.asarray(residencies, dtype=np.int64)
