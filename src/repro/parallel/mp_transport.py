"""Multi-process transport backend carrying packed message batches.

Where :class:`repro.parallel.transport.MessageRouter` hands message objects
between threads by reference, this backend crosses real OS-process
boundaries: clients forked by the client spawner serialise their messages with
:func:`repro.parallel.messages.pack_many` and put **one buffer per batch**
on a bounded ``multiprocessing.Queue`` per server rank; the server-side
aggregator drains them through the shared
:meth:`~repro.parallel.transport.PackedDrainMixin.poll_batches`, and this
backend's ``_get_batch`` decodes each whole batch into columnar chunks.

Statistics live in shared memory (``multiprocessing.RawValue``/``RawArray``
under one shared lock) so pushes performed inside client processes are
visible to the server process that reports them.  The closed flag is a
lock-free shared byte for the same reason.

Both the queue's writer lock and the statistics lock are cross-process: a
client SIGKILLed while holding either wedges every other pusher to that rank.
That is this backend's known limitation; the ``shm`` backend
(:mod:`repro.parallel.shm_ring`) shares nothing with it but
:class:`_SharedFlag` and takes no lock on its push path.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading
from typing import Optional

from repro.parallel.messages import BatchPlan, plan_many
from repro.parallel.transport import (
    PackedDrainMixin,
    RouterClosed,
    Transport,
    TransportStats,
)
from repro.utils.logging import get_logger

logger = get_logger("parallel.mp_transport")


class _SharedFlag:
    """Lock-free cross-process boolean (a monotonic set-once flag).

    ``mp.Event.is_set`` acquires the event's lock on every call, which is
    measurable on the per-batch push path; a plain shared byte needs no lock
    for a flag that only ever transitions False→True.
    """

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = mp.RawValue("b", 0)

    def set(self) -> None:
        self._value.value = 1

    def is_set(self) -> bool:
        return self._value.value != 0


class _SharedStats:
    """Cross-process traffic counters backing :class:`TransportStats` snapshots.

    All counters are lock-free ``RawValue``/``RawArray`` words updated under
    **one** shared lock — a batch push used to pay three separate
    ``mp.Value`` lock round trips, which showed up as ~20 % of the producer
    hot path.  Snapshot reads are lockless: every counter is monotonic, so a
    torn snapshot is merely slightly stale, never wrong.
    """

    def __init__(self, num_server_ranks: int) -> None:
        self._lock = mp.Lock()
        self._messages = mp.RawValue("q", 0)
        self._bytes = mp.RawValue("q", 0)
        self._dropped = mp.RawValue("q", 0)
        self._kills = mp.RawValue("q", 0)
        self._per_rank = mp.RawArray("q", num_server_ranks)

    def record_batch(self, rank: int, count: int, nbytes: int) -> None:
        with self._lock:
            self._messages.value += count
            self._bytes.value += nbytes
            self._per_rank[rank] += count

    def record_dropped(self, count: int) -> None:
        with self._lock:
            self._dropped.value += count

    def record_unresponsive_kill(self) -> None:
        with self._lock:
            self._kills.value += 1

    def snapshot(self) -> TransportStats:
        per_rank = {rank: int(n) for rank, n in enumerate(self._per_rank) if n}
        return TransportStats(
            messages_routed=int(self._messages.value),
            bytes_routed=int(self._bytes.value),
            per_rank_messages=per_rank,
            dropped_messages=int(self._dropped.value),
            unresponsive_kills=int(self._kills.value),
        )


class MultiprocessTransport(PackedDrainMixin, Transport):
    """Transport whose rank channels are ``multiprocessing`` queues.

    Parameters
    ----------
    num_server_ranks:
        Number of server ranks (aggregator threads in the server process).
    max_queue_size:
        Bound of each rank queue **in batches**; with client-side batching a
        slot holds up to ``Connection.batch_size`` messages.  Pushes raise
        ``queue.Full`` after ``timeout`` like the in-process backend.

    Notes
    -----
    Only the server process may poll.  Decoded items that exceed a
    ``poll_batches`` budget are held in a per-rank leftover deque (each rank
    has exactly one aggregator thread, so the deque needs no lock).
    """

    def __init__(self, num_server_ranks: int, max_queue_size: int = 10_000) -> None:
        if num_server_ranks <= 0:
            raise ValueError("num_server_ranks must be positive")
        self.num_server_ranks = int(num_server_ranks)
        self._queues = [mp.Queue(maxsize=int(max_queue_size)) for _ in range(num_server_ranks)]
        # Per-rank overflow of decoded items: control messages and/or
        # columnar chunks.
        self._init_leftovers(num_server_ranks)
        self._closed = _SharedFlag()
        self._shared = _SharedStats(num_server_ranks)
        # Reusable pack scratch, one per pushing thread (thread-local rather
        # than per-transport: thread-mode callers may push concurrently).  The
        # queue feeder pickles asynchronously, so the scratch contents are
        # snapshot into an immutable bytes before the put — still one copy
        # fewer than building the buffer out of intermediate blocks.
        self._scratch = threading.local()

    # ----------------------------------------------------------------- client
    def _pack_batch(self, plan: BatchPlan) -> bytes:
        """Pack ``plan`` through the thread's reusable scratch buffer."""
        scratch = getattr(self._scratch, "buf", None)
        if scratch is None or len(scratch) < plan.nbytes:
            scratch = bytearray(max(plan.nbytes, 64 * 1024))
            self._scratch.buf = scratch
        plan.write_into(scratch, 0)
        return bytes(memoryview(scratch)[: plan.nbytes])

    def push_many(self, rank: int, batch, timeout: float | None = None) -> None:
        """Serialise ``batch`` into one packed buffer and enqueue it."""
        self._check_rank(rank)
        plan = plan_many(batch)
        if not plan.count:
            return
        if self._closed.is_set():
            self._shared.record_dropped(plan.count)
            raise RouterClosed("transport is closed")
        buffer = self._pack_batch(plan)
        try:
            self._queues[rank].put(buffer, timeout=timeout)
        except queue.Full:
            self._shared.record_dropped(plan.count)
            raise
        self._shared.record_batch(rank, plan.count, len(buffer))

    def _record_dropped(self, count: int) -> None:
        if count:
            self._shared.record_dropped(count)

    def record_unresponsive_kill(self) -> None:
        """Count one launcher-side kill of an unresponsive client process."""
        self._shared.record_unresponsive_kill()

    # ----------------------------------------------------------------- server
    # The budgeted drain (poll_batches, leftover bookkeeping) comes from
    # PackedDrainMixin; only the channel pop is queue-specific.
    def _get_batch(self, rank: int, timeout: float | None) -> Optional[list]:
        """Pop and deserialise one packed batch; ``None`` when nothing queued.

        A client process killed mid-put can tear the queue's byte stream
        (multiprocessing documents the queue as corruptible then); a buffer
        that fails to transfer or parse is counted as one dropped batch and
        skipped instead of killing the aggregator thread that polls here.
        """
        try:
            if timeout is None:
                buffer = self._queues[rank].get_nowait()
            else:
                buffer = self._queues[rank].get(timeout=timeout)
        except queue.Empty:
            return None
        except Exception:  # noqa: BLE001 - torn pipe stream fails to unpickle
            logger.warning("rank %d: discarding corrupt transport buffer", rank, exc_info=True)
            self._shared.record_dropped(1)
            return []
        return self._decode_packed(buffer, rank)

    def pending(self, rank: int) -> int:
        """Deserialised leftovers plus queued batches (packed batches count
        once, leftover columnar chunks by their sample count)."""
        self._check_rank(rank)
        return self._leftover_count(rank) + self._queues[rank].qsize()

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._closed.set()

    def shutdown(self) -> None:
        """Close, drain, and detach the queues' feeder machinery.

        Without the drain + ``cancel_join_thread`` a queue holding undelivered
        buffers would block interpreter exit on its feeder thread.
        """
        self.close()
        for rank, q in enumerate(self._queues):
            try:
                while True:
                    q.get_nowait()
            except (queue.Empty, OSError, ValueError):
                pass
            q.cancel_join_thread()
            q.close()
            self._leftover[rank].clear()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    @property
    def stats(self) -> TransportStats:
        return self._shared.snapshot()
