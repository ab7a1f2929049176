"""Common interface and bookkeeping of the training buffers.

Since the columnar rebuild, every concrete buffer is a *policy over row
slots*: samples live in the preallocated column blocks of a
:class:`~repro.buffers.columns.ColumnStore`, and the policy hooks only
decide which slot indices a put writes and a get drains.  The blocking /
threshold / exhaustion contract is implemented once, here, around the two
doors every caller uses: :meth:`TrainingBuffer.put_many` and
:meth:`TrainingBuffer.get_batch_columns`.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from repro.buffers.columns import ColumnBatch, ColumnStore
from repro.utils.exceptions import BufferClosedError

Array = np.ndarray

__all__ = [
    "ColumnBatch",
    "TrainingBuffer",
    "BufferClosedError",
]


class TrainingBuffer:
    """Thread-safe bounded sample container shared by producer and consumer.

    The API follows Algorithm 1 of the paper, with a :class:`ColumnBatch` as
    the unit of both doors:

    * :meth:`put_many` — called by the data-aggregator thread with each
      drained chunk; may block while the buffer cannot accept new data.
    * :meth:`get_batch_columns` — called by the training thread to draw one
      batch; may block until the population passes the threshold.
    * :meth:`signal_reception_over` — called once all clients have finished;
      lifts the threshold and (for policies that retain data) switches the
      buffer into draining mode.

    ``timeout=0`` makes either door non-blocking: ``put_many`` returns 0
    when nothing fits now, and ``get_batch_columns`` raises
    :class:`TimeoutError` below the threshold and returns an empty batch
    once the buffer is exhausted.

    Storage is columnar: a :class:`ColumnStore` holds the samples as
    ``(capacity, d_in)`` float32 inputs, ``(capacity, d_out)`` float32
    targets and int64 id/step vectors.  Policies implement two slot hooks:

    * :meth:`_take_slots_locked` — allocate row slots for a put (evicting
      per policy when full);
    * :meth:`_draw_slots_locked` — pick a batch of slots with vectorized
      RNG calls, consuming them per policy.

    A one-row put or draw is the ``want == 1`` case of the same hooks, so
    there is one bookkeeping path, pinned by the *distribution* of
    Algorithm 1 rather than by a particular RNG stream.

    The base class turns slots into data: :meth:`put_many` writes a batch
    with one fancy-indexed write per column, and :meth:`get_batch_columns`
    returns the drained rows gathered under the lock — crucially *before*
    the slots can be rewritten, so the batch owns its rows.
    """

    def __init__(self, capacity: int, threshold: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("buffer capacity must be positive")
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if threshold > capacity:
            raise ValueError("threshold cannot exceed capacity")
        self.capacity = int(capacity)
        self.threshold = int(threshold)
        self._store = ColumnStore(self.capacity)
        # One lock, two wait queues on it: a put can only ever unblock a
        # getter and a get a putter, so each side wakes the other's queue, and
        # only once that queue's predicate holds — a trainer parked below the
        # threshold is not woken by every put of the ingest phase.  Entering
        # either condition acquires ``_lock``.
        self._lock = threading.RLock()
        self._putters = threading.Condition(self._lock)
        self._getters = threading.Condition(self._lock)
        self._reception_over = False
        self._closed = False
        # Counters shared by all policies.
        self.total_put = 0
        self.total_got = 0

    # ----------------------------------------------------------------- hooks
    def _size_locked(self) -> int:
        raise NotImplementedError

    def _can_put_locked(self) -> bool:
        raise NotImplementedError

    def _can_get_locked(self) -> bool:
        raise NotImplementedError

    def _take_slots_locked(self, want: int) -> Array:
        """Allocate up to ``want`` row slots for a put; lock held,
        ``_can_put_locked()`` True — at least one slot must be returned.

        The policy records the slots as live and performs any eviction its
        semantics call for; evicted slots may be reused within the same call.
        The result may be a view of the policy's slot array: it is consumed
        before the lock is released.
        """
        raise NotImplementedError

    def _draw_slots_locked(self, max_count: int) -> Array:
        """Draw up to ``max_count`` slots; lock held, ``_can_get_locked()`` True.

        Implementations stop as soon as another draw would violate the
        policy's threshold/drain invariants, i.e. exactly when
        ``_can_get_locked()`` turns False.  Policies that sample with
        replacement may return duplicate slots.  The result must own its
        memory (the caller gathers from it after the policy state moved on).
        """
        raise NotImplementedError

    def _snapshot_locked(self) -> dict:
        """Policy-specific :meth:`snapshot` fields; lock held."""
        return {}

    def _put_ready_locked(self) -> bool:
        return self._can_put_locked() or self._closed

    def _get_ready_locked(self) -> bool:
        # ``_can_get_locked() or _exhausted_locked() or closed``, simplified.
        return self._can_get_locked() or self._reception_over or self._closed

    # ------------------------------------------------------------------- api
    def __len__(self) -> int:
        with self._lock:
            return self._size_locked()

    @property
    def reception_over(self) -> bool:
        with self._lock:
            return self._reception_over

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def put_many(self, batch: ColumnBatch, timeout: Optional[float] = None) -> int:
        """Insert the rows of ``batch`` under a single lock acquisition.

        The rows are written into the column store with one fancy-indexed
        write per column — no per-sample loop.

        Blocks while the buffer cannot accept more data, inserting in bulk
        whenever space frees up.  Returns the number of samples inserted:
        all of them when ``timeout`` is None (full blocking insert), or
        possibly fewer when a ``timeout`` is given and it expires while
        waiting for space — the caller can retry with the remaining suffix,
        which is what lets the aggregator's shutdown path stay responsive.
        With ``timeout=0`` it inserts what fits right now and never waits.

        Ownership contract: the store *copies* each inserted row into its
        preallocated columns — for an adopted wire chunk this is the one and
        only copy on the put side — so the caller's chunk is dead the moment
        ``put_many`` returns and pins no memory.

        Raises, before anything is inserted, :class:`TypeError` when
        ``batch`` is not a :class:`ColumnBatch` and :class:`ValueError` when
        the sample widths do not match the widths the buffer already holds;
        raises :class:`BufferClosedError` when the buffer is (or becomes)
        closed.
        """
        if not isinstance(batch, ColumnBatch):
            raise TypeError(f"put_many takes a ColumnBatch, not {type(batch).__name__}")
        total = len(batch)
        inserted = 0
        with self._putters:
            if self._closed:
                raise BufferClosedError("cannot put into a closed buffer")
            self._store.ensure_columns(batch.inputs.shape[1:], batch.targets.shape[1:])
            while inserted < total:
                if not self._putters.wait_for(self._put_ready_locked, timeout=timeout):
                    return inserted
                if self._closed:
                    raise BufferClosedError("buffer closed while waiting to put")
                slots = self._take_slots_locked(total - inserted)
                count = len(slots)
                if count <= 0:  # defensive: a policy must accept >= 1 here
                    break
                self._store.write_batch(slots, batch, inserted)
                inserted += count
                self.total_put += count
                if self._can_get_locked():
                    self._getters.notify_all()
        return inserted

    def get_batch_columns(
        self, batch_size: int, timeout: Optional[float] = None
    ) -> ColumnBatch:
        """Draw ``batch_size`` samples as one :class:`ColumnBatch`.

        Blocks until the policy can supply samples; when it cannot supply the
        whole batch yet (population at the threshold) it waits again, with
        ``timeout`` bounding each wait.  Returns a shorter batch when the
        buffer is exhausted (an empty one, ``len() == 0``, once nothing is
        left) or when a timeout expires mid-batch, so samples already drawn
        are never discarded; :class:`TimeoutError` is raised only when the
        timeout expires with nothing drawn.  ``timeout=0`` therefore never
        waits.

        Each piece is gathered from the store *under the lock*, before any
        producer can recycle the freed slots, so the returned batch owns its
        rows outright.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        pieces: List[ColumnBatch] = []
        drawn = 0
        with self._getters:
            while drawn < batch_size:
                if not self._getters.wait_for(self._get_ready_locked, timeout=timeout):
                    if drawn:
                        break
                    raise TimeoutError("timed out waiting for a sample")
                if self._closed or self._exhausted_locked():
                    break
                slots = self._draw_slots_locked(batch_size - drawn)
                count = len(slots)
                if count == 0:  # defensive: ready() guaranteed >= 1 available
                    break
                pieces.append(self._store.gather(slots))
                drawn += count
                self.total_got += count
                if self._can_put_locked():
                    self._putters.notify_all()
        if not pieces:
            return self._store.gather(np.empty(0, dtype=np.intp))
        if len(pieces) == 1:
            return pieces[0]
        return ColumnBatch.concat(pieces)

    def _exhausted_locked(self) -> bool:
        """True when reception is over and no further sample can be produced."""
        return self._reception_over and not self._can_get_locked()

    def signal_reception_over(self) -> None:
        """Notify the buffer that no new data will ever arrive."""
        with self._lock:
            self._reception_over = True
            self._putters.notify_all()
            self._getters.notify_all()

    def close(self) -> None:
        """Abort: wake every waiter; subsequent puts raise, draws return an
        empty batch."""
        with self._lock:
            self._closed = True
            self._putters.notify_all()
            self._getters.notify_all()

    # -------------------------------------------------------------- inspection
    def snapshot(self) -> dict:
        """Population counters used by the monitoring/metrics code."""
        with self._lock:
            return {
                "size": self._size_locked(),
                "capacity": self.capacity,
                "threshold": self.threshold,
                "total_put": self.total_put,
                "total_got": self.total_got,
                "reception_over": self._reception_over,
                **self._snapshot_locked(),
            }
