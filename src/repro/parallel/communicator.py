"""In-process MPI-like communicator backed by thread-safe queues.

A :class:`CommunicatorGroup` owns ``size`` ranks.  Each rank gets its own
:class:`ThreadCommunicator` handle, typically used from a dedicated thread via
:class:`repro.parallel.spmd.SPMDExecutor`.  It offers the point-to-point
subset of mpi4py — ``send``/``recv``, ``sendrecv`` and ``barrier`` — and the
collectives data-parallel training needs are built on it in
:mod:`repro.parallel.collectives` (one ring all-reduce, one tree broadcast).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.exceptions import CommunicatorError

#: Tag used when the caller does not specify one.
DEFAULT_TAG = 0


class _Mailbox:
    """Per-rank mailbox of (source, tag) keyed messages."""

    def __init__(self) -> None:
        self._lock = threading.Condition()
        self._messages: Dict[Tuple[int, int], List[Any]] = {}
        #: Why the group was aborted; once set, every ``get`` raises it.
        self._abort_reason: Optional[str] = None

    def abort(self, reason: str) -> None:
        with self._lock:
            if self._abort_reason is None:
                self._abort_reason = reason
            self._lock.notify_all()

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self._lock:
            self._messages.setdefault((source, tag), []).append(payload)
            self._lock.notify_all()

    def get(self, source: int, tag: int, timeout: Optional[float]) -> Any:
        deadline = None if timeout is None else (threading.TIMEOUT_MAX if timeout < 0 else timeout)
        with self._lock:
            key = (source, tag)

            def ready() -> bool:
                return self._abort_reason is not None or bool(self._messages.get(key))

            if not self._lock.wait_for(ready, timeout=deadline):
                raise CommunicatorError(
                    f"timed out waiting for message from rank {source} with tag {tag}"
                )
            if self._abort_reason is not None:
                raise CommunicatorError(self._abort_reason)
            return self._messages[key].pop(0)


class _Barrier:
    """Reusable barrier tolerant to being constructed for n parties."""

    def __init__(self, parties: int) -> None:
        self._barrier = threading.Barrier(parties)

    def wait(self, timeout: Optional[float] = None) -> None:
        try:
            self._barrier.wait(timeout=timeout)
        except threading.BrokenBarrierError as exc:
            raise CommunicatorError("barrier broken (a rank failed or timed out)") from exc

    def abort(self) -> None:
        self._barrier.abort()


class CommunicatorGroup:
    """Shared state of a communicator spanning ``size`` ranks."""

    def __init__(self, size: int, timeout: float | None = 60.0) -> None:
        if size <= 0:
            raise CommunicatorError(f"communicator size must be positive, got {size}")
        self.size = int(size)
        self.timeout = timeout
        self._mailboxes = [_Mailbox() for _ in range(size)]
        self._barrier = _Barrier(size)
        self.errors: Dict[int, BaseException] = {}  # rank -> what it failed with

    def rank_communicators(self) -> List["ThreadCommunicator"]:
        """One communicator handle per rank."""
        return [ThreadCommunicator(self, rank) for rank in range(self.size)]

    def fail(self, rank: int, exc: BaseException) -> None:
        """Rank ``rank`` failed with ``exc``: record it, and every blocked and
        later ``recv`` of any rank raises :class:`CommunicatorError` naming
        the rank, and the barrier breaks."""
        self.errors[rank] = exc
        for mailbox in self._mailboxes:
            mailbox.abort(f"rank {rank} failed")
        self._barrier.abort()


class ThreadCommunicator:
    """Rank-local handle to a :class:`CommunicatorGroup`."""

    def __init__(self, group: CommunicatorGroup, rank: int) -> None:
        if not 0 <= rank < group.size:
            raise CommunicatorError(f"rank {rank} out of range for size {group.size}")
        self.group = group
        self.rank = int(rank)

    # ------------------------------------------------------------------ info
    @property
    def size(self) -> int:
        return self.group.size

    def _check_rank(self, rank: int, label: str) -> None:
        if not 0 <= rank < self.size:
            raise CommunicatorError(f"{label} rank {rank} out of range [0, {self.size})")

    # --------------------------------------------------------- point to point
    def send(self, payload: Any, dest: int, tag: int = DEFAULT_TAG) -> None:
        """Send ``payload`` to rank ``dest`` (non-blocking, buffered)."""
        self._check_rank(dest, "destination")
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        self.group._mailboxes[dest].put(self.rank, tag, payload)

    def recv(self, source: int, tag: int = DEFAULT_TAG) -> Any:
        """Blocking receive of the next message from ``source`` with ``tag``,
        bounded by the group's timeout."""
        self._check_rank(source, "source")
        return self.group._mailboxes[self.rank].get(source, tag, self.group.timeout)

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int,
        send_tag: int = DEFAULT_TAG,
        recv_tag: int = DEFAULT_TAG,
    ) -> Any:
        """Combined send+recv, one step of a ring collective (deadlock-free)."""
        self.send(payload, dest, tag=send_tag)
        return self.recv(source, tag=recv_tag)

    # -------------------------------------------------------- synchronisation
    def barrier(self) -> None:
        """Synchronise all ranks of the group."""
        self.group._barrier.wait(timeout=self.group.timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ThreadCommunicator(rank={self.rank}, size={self.size})"
