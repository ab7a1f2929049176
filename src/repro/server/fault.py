"""Fault-tolerance primitives of the server.

The paper's protocol: "The server maintains a log of received messages per
client, so in case of client restart, already received messages are discarded"
and "the server watches for unresponsive clients and asks the launcher to
properly kill and restart faulty ones".  :class:`MessageLog` implements the
former, :class:`HeartbeatMonitor` the latter.  Liveness is judged on the
server's clock alone: the monitor stamps each client's latest arrival with
its own ``time.monotonic()`` and no client sends a time of its own.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np


#: Largest time step the dedup log accepts: it bounds a client's byte map at
#: 4 MiB (the paper's runs have 100 steps, the largest benchmark 10,000).
MAX_TIME_STEP = 1 << 22


class MessageLog:
    """Dedup log: one ``bytearray`` per client, indexed by time step (1 = received)."""

    def __init__(self) -> None:
        self._received: Dict[int, bytearray] = {}
        self._duplicates = 0
        self._lock = threading.Lock()

    def register_many(self, client_ids: np.ndarray, time_steps: np.ndarray,
                      clients: List[int]) -> Optional[np.ndarray]:
        """Record a columnar batch of ``(client_id, time_step)`` keys at once.

        ``clients`` lists the distinct values of ``client_ids`` — the caller
        has already found them (the aggregator, for liveness), so the log
        does not search the ids again.

        Returns ``None`` when every key is new (the caller keeps the whole
        batch: no mask allocation, no copy), else a boolean keep-mask aligned
        with the input vectors.  Each rejected key counts once as a
        duplicate.  A step outside ``[0, MAX_TIME_STEP]`` raises
        ``ValueError`` before any of its client's steps is logged.

        The check is made per *client*: the aggregator merges the chunks of
        one drain before dedup, so concurrent clients interleave in a batch,
        and each client's rows are split off with one comparison.
        """
        with self._lock:
            if len(clients) == 1:
                return self._register_steps_locked(clients[0], time_steps.tolist())
            keep = None
            for client_id in clients:
                rows = client_ids == client_id
                mask = self._register_steps_locked(client_id, time_steps[rows].tolist())
                if mask is not None:
                    if keep is None:
                        keep = np.ones(len(client_ids), dtype=bool)
                    keep[rows] = mask
            return keep

    def _register_steps_locked(self, client_id: int, steps: List[int]) -> Optional[np.ndarray]:
        """Log one client's steps; ``None`` when all are new, else its keep-mask."""
        first, last = steps[0], steps[-1]
        # The normal chunk is the client's next run of consecutive steps: its
        # ends bound it, and one slice store marks it if none is logged yet.
        run = last - first + 1 == len(steps) and steps == list(range(first, last + 1))
        low, high = (first, last) if run else (min(steps), max(steps))
        if low < 0 or high > MAX_TIME_STEP:
            raise ValueError(f"client {client_id} sent time step {low if low < 0 else high}, "
                             f"outside [0, {MAX_TIME_STEP}]")
        received = self._received.setdefault(client_id, bytearray())
        if high >= len(received):
            received.extend(bytes(high + 1 - len(received)))
        if run and received.find(1, low, high + 1) < 0:
            received[low:high + 1] = b"\x01" * len(steps)
            return None
        # A restarted client replaying (or a step repeated inside the chunk):
        # the rare path decides key by key, first occurrence wins.
        kept = []
        for step in steps:
            kept.append(not received[step])
            received[step] = 1
        duplicates = kept.count(False)
        if not duplicates:
            return None
        self._duplicates += duplicates
        return np.array(kept, dtype=bool)

    @property
    def duplicates_discarded(self) -> int:
        with self._lock:
            return self._duplicates

    def state(self) -> Dict[int, List[int]]:
        """The logged steps of every client seen, each list sorted."""
        with self._lock:
            return {cid: np.flatnonzero(np.frombuffer(bytes(received), np.uint8)).tolist()
                    for cid, received in self._received.items()}


@dataclass
class ClientLiveness:
    """Liveness record of one client."""

    client_id: int
    last_seen: float
    finished: bool = False


class HeartbeatMonitor:
    """Tracks when the server last heard from each client.

    Any hello or time step refreshes the client's ``last_seen``, stamped
    with the server's own monotonic clock on arrival; the launcher's
    watchdog reads :meth:`silence` and kills and restarts a client silent
    for longer than ``TransportConfig.heartbeat_timeout``.
    """

    def __init__(self) -> None:
        self._clients: Dict[int, ClientLiveness] = {}
        self._lock = threading.Lock()

    def touch(self, client_id: int) -> None:
        """Record that a message from ``client_id`` arrived just now."""
        now = time.monotonic()
        with self._lock:
            record = self._clients.get(client_id)
            if record is None:
                self._clients[client_id] = ClientLiveness(client_id, now)
            else:
                record.last_seen = now

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
