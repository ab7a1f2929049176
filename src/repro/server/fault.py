"""Fault-tolerance primitives of the server.

The paper's protocol: "The server maintains a log of received messages per
client, so in case of client restart, already received messages are discarded"
and "the server watches for unresponsive clients and asks the launcher to
properly kill and restart faulty ones".  :class:`MessageLog` implements the
former, :class:`HeartbeatMonitor` the latter.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np


class MessageLog:
    """Per-client log of received (client_id, time_step) keys for deduplication."""

    def __init__(self) -> None:
        self._received: Dict[int, Set[int]] = {}
        self._duplicates = 0
        self._lock = threading.Lock()

    def register(self, client_id: int, time_step: int) -> bool:
        """Record a message; returns True if it is new, False if duplicate."""
        with self._lock:
            steps = self._received.setdefault(int(client_id), set())
            if time_step in steps:
                self._duplicates += 1
                return False
            steps.add(int(time_step))
            return True

    def register_many(self, client_ids: np.ndarray,
                      time_steps: np.ndarray) -> Optional[np.ndarray]:
        """Record a columnar batch of ``(client_id, time_step)`` keys at once.

        Returns ``None`` when every key is new (the caller keeps the whole
        batch: no mask allocation, no copy), else a boolean keep-mask aligned
        with the input vectors.  Duplicate accounting matches per-key
        :meth:`register` exactly: each rejected key counts once.

        The check is made per *client*: the aggregator merges the chunks of
        one drain before dedup, so concurrent clients interleave in a batch,
        and each client's rows are split off with one comparison and decided
        by one set-disjointness probe.
        """
        with self._lock:
            clients = set(client_ids.tolist())
            if len(clients) == 1:
                return self._register_steps_locked(clients.pop(), time_steps)
            keep = None
            for client_id in clients:
                rows = client_ids == client_id
                mask = self._register_steps_locked(client_id, time_steps[rows])
                if mask is not None:
                    if keep is None:
                        keep = np.ones(len(client_ids), dtype=bool)
                    keep[rows] = mask
            return keep

    def _register_steps_locked(self, client_id: int,
                               time_steps: np.ndarray) -> Optional[np.ndarray]:
        """Log one client's steps; ``None`` when all are new, else its keep-mask."""
        steps = time_steps.tolist()
        known = self._received.setdefault(client_id, set())
        if len(set(steps)) == len(steps) and known.isdisjoint(steps):
            known.update(steps)
            return None
        # A restarted client replaying (or a step repeated inside the chunk):
        # the rare path decides key by key, first occurrence wins.
        keep = np.empty(len(steps), dtype=bool)
        for index, step in enumerate(steps):
            keep[index] = step not in known
            known.add(step)
        self._duplicates += len(steps) - int(keep.sum())
        return keep

    def received_steps(self, client_id: int) -> Set[int]:
        """Time steps already received from ``client_id`` (copy)."""
        with self._lock:
            return set(self._received.get(int(client_id), set()))

    def count(self, client_id: int) -> int:
        with self._lock:
            return len(self._received.get(int(client_id), set()))

    @property
    def duplicates_discarded(self) -> int:
        with self._lock:
            return self._duplicates

    def state(self) -> Dict[int, List[int]]:
        """Serialisable snapshot (used by server checkpoints)."""
        with self._lock:
            return {cid: sorted(steps) for cid, steps in self._received.items()}

    def restore(self, state: Dict[int, List[int]]) -> None:
        """Restore a snapshot produced by :meth:`state`."""
        with self._lock:
            self._received = {int(cid): set(steps) for cid, steps in state.items()}


@dataclass
class ClientLiveness:
    """Liveness record of one client."""

    client_id: int
    last_seen: float
    progress: float = 0.0
    finished: bool = False


@dataclass
class HeartbeatMonitor:
    """Detects unresponsive clients from the timestamps of their last messages.

    Any message (hello, time step, heartbeat) refreshes the client's
    ``last_seen``; clients silent for more than ``timeout`` seconds and not
    finished are reported by :meth:`unresponsive_clients` so the server can ask
    the launcher to kill and restart them.
    """

    timeout: float = 30.0
    _clients: Dict[int, ClientLiveness] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def touch(self, client_id: int, progress: float = 0.0, timestamp: float | None = None) -> None:
        """Record activity from a client."""
        now = time.monotonic() if timestamp is None else timestamp
        with self._lock:
            record = self._clients.get(client_id)
            if record is None:
                self._clients[client_id] = ClientLiveness(client_id, now, progress)
            else:
                record.last_seen = now
                record.progress = max(record.progress, progress)

    def mark_finished(self, client_id: int) -> None:
        with self._lock:
            record = self._clients.setdefault(
                client_id, ClientLiveness(client_id, time.monotonic())
            )
            record.finished = True

    def silence(self, client_id: int, now: float | None = None) -> float | None:
        """Seconds since ``client_id``'s last observed activity.

        ``None`` when the client was never seen (it may still be starting
        up) or has already finished; the launcher's watchdog asks
        :meth:`is_finished` to tell the two apart.
        """
        now = time.monotonic() if now is None else now
        with self._lock:
            record = self._clients.get(client_id)
            if record is None or record.finished:
                return None
            return now - record.last_seen

    def is_finished(self, client_id: int) -> bool:
        """True once the client's ``ClientFinished`` was observed."""
        with self._lock:
            record = self._clients.get(client_id)
            return record is not None and record.finished

    def unresponsive_clients(self, now: float | None = None) -> List[Tuple[int, float]]:
        """(client_id, silence duration) of clients exceeding the timeout."""
        now = time.monotonic() if now is None else now
        with self._lock:
            return [
                (cid, now - rec.last_seen)
                for cid, rec in self._clients.items()
                if not rec.finished and (now - rec.last_seen) > self.timeout
            ]

    def tracked_clients(self) -> List[int]:
        with self._lock:
            return sorted(self._clients)
