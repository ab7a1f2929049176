"""In-process MPI-like communicator backed by thread-safe queues.

A :class:`CommunicatorGroup` owns ``size`` ranks.  Each rank gets its own
:class:`ThreadCommunicator` handle, typically used from a dedicated thread via
:class:`repro.parallel.spmd.SPMDExecutor`.  The interface mirrors the subset
of mpi4py used by the paper's framework: ``send``/``recv``, ``barrier``,
``bcast``, ``gather``, ``scatter``, ``allgather``, ``reduce``, ``allreduce``
and ``sendrecv`` for halo exchanges.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.exceptions import CommunicatorError

Array = np.ndarray

#: Tag used when the caller does not specify one.
DEFAULT_TAG = 0

_REDUCTIONS: Dict[str, Callable[[Array, Array], Array]] = {
    "sum": np.add,
    "prod": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
}


class _Mailbox:
    """Per-rank mailbox of (source, tag) keyed messages."""

    def __init__(self) -> None:
        self._lock = threading.Condition()
        self._messages: Dict[Tuple[int, int], List[Any]] = {}

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self._lock:
            self._messages.setdefault((source, tag), []).append(payload)
            self._lock.notify_all()

    def get(self, source: int, tag: int, timeout: Optional[float]) -> Any:
        deadline = None if timeout is None else (threading.TIMEOUT_MAX if timeout < 0 else timeout)
        with self._lock:
            key = (source, tag)

            def available() -> bool:
                return bool(self._messages.get(key))

            if not self._lock.wait_for(available, timeout=deadline):
                raise CommunicatorError(
                    f"timed out waiting for message from rank {source} with tag {tag}"
                )
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


class CommunicatorGroup:
    """Shared state of a communicator spanning ``size`` ranks."""

    def __init__(self, size: int, timeout: float | None = 60.0) -> None:
        if size <= 0:
            raise CommunicatorError(f"communicator size must be positive, got {size}")
        self.size = int(size)
        self.timeout = timeout
        self._mailboxes = [_Mailbox() for _ in range(size)]
        self._barrier = _Barrier(size)

    def rank_communicators(self) -> List["ThreadCommunicator"]:
        """One communicator handle per rank."""
        return [ThreadCommunicator(self, rank) for rank in range(self.size)]


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

    def recv(self, source: int, tag: int = DEFAULT_TAG, timeout: float | None = None) -> Any:
        """Blocking receive of the next message from ``source`` with ``tag``."""
        self._check_rank(source, "source")
        timeout = self.group.timeout if timeout is None else timeout
        return self.group._mailboxes[self.rank].get(source, tag, timeout)

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int,
        send_tag: int = DEFAULT_TAG,
        recv_tag: int = DEFAULT_TAG,
    ) -> Any:
        """Combined send+recv used for halo exchanges (deadlock-free)."""
        self.send(payload, dest, tag=send_tag)
        return self.recv(source, tag=recv_tag)

    # ------------------------------------------------------------ collectives
    def barrier(self) -> None:
        """Synchronise all ranks of the group."""
        self.group._barrier.wait(timeout=self.group.timeout)

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Broadcast ``payload`` from ``root`` to every rank."""
        self._check_rank(root, "root")
        if self.rank == root:
            for dest in range(self.size):
                if dest != root:
                    self.send(payload, dest, tag=-1)
            result = payload
        else:
            result = self.recv(root, tag=-1)
        self.barrier()
        return result

    def gather(self, payload: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather one value per rank on ``root`` (ordered by rank)."""
        self._check_rank(root, "root")
        if self.rank == root:
            values: List[Any] = [None] * self.size
            values[root] = payload
            for source in range(self.size):
                if source != root:
                    values[source] = self.recv(source, tag=-2)
            self.barrier()
            return values
        self.send(payload, root, tag=-2)
        self.barrier()
        return None

    def scatter(self, payloads: Optional[Sequence[Any]], root: int = 0) -> Any:
        """Scatter one value per rank from ``root``."""
        self._check_rank(root, "root")
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise CommunicatorError(
                    f"scatter on root expects {self.size} values, got "
                    f"{None if payloads is None else len(payloads)}"
                )
            for dest in range(self.size):
                if dest != root:
                    self.send(payloads[dest], dest, tag=-3)
            result = payloads[root]
        else:
            result = self.recv(root, tag=-3)
        self.barrier()
        return result

    def allgather(self, payload: Any) -> List[Any]:
        """Gather one value per rank on every rank."""
        gathered = self.gather(payload, root=0)
        return self.bcast(gathered, root=0)

    def reduce(self, payload: Array, op: str = "sum", root: int = 0) -> Optional[Array]:
        """Element-wise reduction of arrays onto ``root``."""
        if op not in _REDUCTIONS:
            raise CommunicatorError(f"unknown reduction {op!r}; available: {sorted(_REDUCTIONS)}")
        gathered = self.gather(np.asarray(payload), root=root)
        if gathered is None:
            return None
        result = np.array(gathered[0], copy=True)
        for value in gathered[1:]:
            result = _REDUCTIONS[op](result, np.asarray(value))
        return result

    def allreduce(self, payload: Array, op: str = "sum") -> Array:
        """Element-wise reduction whose result is available on every rank."""
        reduced = self.reduce(payload, op=op, root=0)
        return np.asarray(self.bcast(reduced, root=0))

    # --------------------------------------------------------------- utility
    def split_workload(self, total: int) -> range:
        """Contiguous share of ``range(total)`` owned by this rank (block split)."""
        base, remainder = divmod(total, self.size)
        start = self.rank * base + min(self.rank, remainder)
        count = base + (1 if self.rank < remainder else 0)
        return range(start, start + count)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ThreadCommunicator(rank={self.rank}, size={self.size})"
