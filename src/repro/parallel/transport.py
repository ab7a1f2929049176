"""Transport layer connecting clients to server ranks.

This is the ZeroMQ substitute.  A :class:`Transport` owns one bounded channel
per server rank; clients obtain a :class:`Connection`, whose time steps enter
a transport as :class:`~repro.parallel.messages.StepBlock` rows pushed to a
chosen server rank, while each server data-aggregator thread drains its own
channel with :meth:`Transport.poll_batches` — samples leave every backend as
:class:`~repro.buffers.columns.ColumnBatch` chunks, control messages as
plain objects.  Four backends implement the interface:

* :class:`MessageRouter` — the in-process backend: one bounded
  :class:`RankChannel` per rank, blocks handed over by reference (no
  serialisation).
* :class:`repro.parallel.mp_transport.MultiprocessTransport` — real OS-process
  isolation: one ``multiprocessing.Queue`` per rank carrying *packed batches*
  (:func:`repro.parallel.messages.pack_many`), with shared-memory statistics
  counters visible from every client process.
* :class:`repro.parallel.shm_ring.ShmRingTransport` — the same process
  isolation over lock-free shared-memory SPSC ring buffers, one per client
  and rank, each carrying everything that client sends to that rank (hello,
  time steps, finished) in send order.
* :class:`repro.parallel.tcp_transport.TcpTransport` — the first backend
  where client and server share no memory: length-prefixed frames carrying
  the same packed batches over TCP sockets into an asyncio front door
  (:class:`repro.server.serving.AsyncFrontDoor`).  It is a
  :class:`MessageRouter` whose producer is that front door: received
  frames enter the same rank channels.

Every backend drains through one implementation,
:meth:`PackedDrainMixin.poll_batches`: a backend only pops (and decodes) one
batch from a rank channel in ``_get_batch``.  :func:`make_transport` builds
one of the four backends by name from a :class:`TransportConfig`; the set is
closed.  All backends keep aggregate statistics (messages/bytes routed,
drops) used by the throughput experiments, and each is its study's failure
latch (:meth:`Transport.fail`).
"""

from __future__ import annotations

import os
import queue
import struct
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Sequence, Union

from repro.buffers.columns import ColumnBatch
from repro.parallel.messages import (
    Message,
    StepBlock,
    TimeStepMessage,
    WireFormatError,
    batch_parts,
    columnize,
    message_count,
    unpack_columns,
    unpack_many,
)
from repro.utils.exceptions import ConfigurationError, ReproError
from repro.utils.logging import get_logger

logger = get_logger("parallel.transport")


class RouterClosed(ReproError):
    """Raised when pushing to or polling from a closed transport."""


@dataclass
class TransportStats:
    """Counters describing the traffic that went through a transport.

    ``dropped_messages`` counts every message that failed to enter a rank
    channel: pushes that timed out on a full queue and pushes rejected
    because the transport was already closed.  ``torn_batches`` counts
    batches lost to a writer killed mid-write (a shm ring writer killed
    mid-commit, a tcp connection ended mid-frame), and
    ``ring_depth_high_water`` the deepest observed backlog per rank (shm
    ring batches, inproc channel blocks, tcp channel frames).  Both stay at
    their defaults on the ``mp`` backend, and ``torn_batches`` on
    ``inproc``.
    ``unresponsive_kills`` counts client processes the launcher terminated
    for missing their heartbeat deadline (process client mode only).
    """

    messages_routed: int = 0
    bytes_routed: int = 0
    per_rank_messages: Dict[int, int] = field(default_factory=dict)
    dropped_messages: int = 0
    torn_batches: int = 0
    ring_depth_high_water: Dict[int, int] = field(default_factory=dict)
    unresponsive_kills: int = 0

    def record_batch(self, rank: int, count: int, nbytes: int) -> None:
        """Record ``count`` messages that crossed the channel as one batch."""
        self.messages_routed += int(count)
        self.bytes_routed += int(nbytes)
        self.per_rank_messages[rank] = self.per_rank_messages.get(rank, 0) + int(count)


class Transport:
    """Interface of a client→server message channel set.

    A transport exposes ``num_server_ranks`` bounded channels.  Clients call
    :meth:`connect` and push through the returned :class:`Connection`; the
    per-rank server aggregators drain with :meth:`poll_batches`.  Push calls
    raise ``queue.Full`` when the rank channel stays full past the timeout
    (ZMQ's high-water-mark back-pressure) and :class:`RouterClosed` after
    :meth:`close`; both paths count the message in ``stats.dropped_messages``.
    """

    num_server_ranks: int
    #: The first exception handed to :meth:`fail`, in the server process.
    failure: Optional[BaseException] = None

    # ----------------------------------------------------------------- client
    def connect(self, client_id: int, batch_size: int = 1) -> "Connection":
        """Create a connection handle for a client (all server ranks reachable)."""
        if self.closed:
            raise RouterClosed("cannot connect: transport is closed")
        return Connection(transport=self, client_id=int(client_id), batch_size=int(batch_size))

    def push(self, rank: int, message: Message, timeout: float | None = None) -> None:
        """Push one message to ``rank`` (blocking while the channel is full).

        Defined once, here: a single message is a batch of one, so every
        backend has exactly one client entry, :meth:`push_many`.
        """
        self.push_many(rank, [message], timeout=timeout)

    def push_many(self, rank: int, batch, timeout: float | None = None) -> None:
        """Push a batch to ``rank``; wire backends serialise it as one buffer.

        ``batch`` is a :class:`StepBlock` (what a :class:`Connection` flushes)
        or a sequence of messages and blocks, grouped by
        :func:`~repro.parallel.messages.batch_parts`.  A failed push drops the
        whole remaining batch, so every backend accounts a rejected batch
        identically in ``stats.dropped_messages``.
        """
        raise NotImplementedError

    def _record_dropped(self, count: int) -> None:
        """Add ``count`` messages to the drop counter (backend-specific store)."""
        raise NotImplementedError

    def record_unresponsive_kill(self) -> None:
        """Count one launcher-side kill of an unresponsive client (optional)."""

    def lease_client(self, client_id: int) -> int:
        """Reserve ``client_id``'s channel before its first process starts.

        Called by the launcher in the server process; the lease lasts until
        :meth:`release_client`.  Backends without per-client channels lease
        nothing and return ``-1``.
        """
        return -1

    def adopt_lease(self, client_id: int, slot: int) -> None:
        """Install, in the client spawner's copy, a lease the server chose."""

    def release_client(self, client_id: int) -> None:
        """Free ``client_id``'s lease once its last process has exited."""

    # ----------------------------------------------------------------- server
    def poll_batches(self, rank: int, max_messages: int = 64,
        timeout: float | None = 0.05) -> list:
        """Drain up to ``max_messages`` messages queued for server rank ``rank``.

        The one server-side drain.  Blocks up to ``timeout`` for the first
        batch only, then takes whatever else is already queued without
        blocking; returns an empty list on timeout.  Time steps arrive as
        :class:`repro.buffers.columns.ColumnBatch` chunks that own their
        columns (a chunk of ``n`` samples counts ``n`` messages toward
        ``max_messages``), control messages as plain :class:`Message`
        objects, all in arrival order — never a ``TimeStepMessage``.
        """
        raise NotImplementedError

    def _columnize(self, rank: int, items: list) -> list:
        """Join the step runs of ``items`` (blocks or decoded messages) into
        chunks, control messages passing through.

        A ragged step run is rejected here, at the boundary, like a corrupt
        buffer: logged, counted as one dropped batch, and the time steps of
        ``items`` are discarded (control messages are still delivered, so a
        client's finished marker is never lost with them).
        """
        try:
            return columnize(items)
        except WireFormatError:
            logger.warning("rank %d: discarding ragged time-step run", rank, exc_info=True)
            self._record_dropped(1)
            return [m for m in items if type(m) not in (TimeStepMessage, StepBlock)]

    def pending(self, rank: int) -> int:
        """Number of messages currently queued for server rank ``rank``."""
        raise NotImplementedError

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the transport; subsequent pushes raise :class:`RouterClosed`."""
        raise NotImplementedError

    def fail(self, exc: BaseException) -> None:
        """Fail the study: every server thread hands the exception that ends
        it here.  The first one is kept as :attr:`failure` before the close
        (which stops clients, launcher and aggregators), later ones logged.
        """
        # One atomic ``setdefault`` keeps the first of any racing threads.
        first = vars(self).setdefault("failure", exc)
        if exc is not first:
            logger.warning("after the study failed with %r, also: %r", first, exc)
        self.close()

    def shutdown(self) -> None:
        """Close and release backend resources (queues, feeder threads)."""
        self.close()

    @property
    def closed(self) -> bool:
        raise NotImplementedError

    @property
    def stats(self) -> TransportStats:
        """Snapshot of the traffic counters."""
        raise NotImplementedError

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_server_ranks:
            raise ValueError(f"server rank {rank} out of range")


class PackedDrainMixin:
    """The one server-side drain, shared by every backend.

    A channel slot holds a whole batch — a packed buffer on the wire
    backends (mp, shm, tcp), a step block on ``inproc`` — so a poll budget
    rarely lines up with batch boundaries.  This mixin implements the
    budgeted drain — block for the first batch only, then drain without
    blocking, park the overshoot in a per-rank leftover deque, join the
    by-reference step blocks of the drained run — plus the shared
    packed-buffer decode (columnar chunk straight from the buffer, mixed
    batches regrouped, corrupt buffers dropped and counted).  No backend
    overrides :meth:`poll_batches`.

    A concrete backend provides:

    * ``self._leftover`` — one ``deque`` per rank, created via
      :meth:`_init_leftovers` in ``__init__`` (each rank has exactly one
      aggregator thread, so the deques need no lock);
    * :meth:`_get_batch` — pop and decode one batch from the rank channel,
      waiting for it up to ``timeout`` (its own wait) or not at all;
    * ``_record_dropped``/``_check_rank`` from :class:`Transport`.
    """

    _leftover: List[Deque[object]]

    def _init_leftovers(self, num_server_ranks: int) -> None:
        self._leftover = [deque() for _ in range(num_server_ranks)]

    def poll_batches(self, rank: int, max_messages: int = 64,
        timeout: float | None = 0.05) -> list:
        if max_messages <= 0:
            raise ValueError("max_messages must be positive")
        self._check_rank(rank)
        items: list = []
        count = self._take_leftover(rank, items, max_messages)
        if not items:
            # Block up to ``timeout`` for the first batch only.
            batch = self._get_batch(rank, timeout)
            if batch is None:
                return []
            count = self._absorb(rank, items, batch, max_messages, count)
        # Drain whatever else is already queued without blocking.
        while count < max_messages:
            batch = self._get_batch(rank, None)
            if batch is None:
                break
            count = self._absorb(rank, items, batch, max_messages, count)
        if StepBlock in map(type, items):
            # Blocks handed over by reference (inproc): the drained run is
            # joined into chunks once, not once per block.
            return self._columnize(rank, items)
        return items

    def _take_leftover(self, rank: int, out: list, max_messages: int) -> int:
        """Move parked leftovers into ``out`` within the budget; returns the
        message count taken (what still does not fit is parked again)."""
        leftover = self._leftover[rank]
        if not leftover:
            return 0
        parked = list(leftover)
        leftover.clear()
        return self._absorb(rank, out, parked, max_messages)

    def _get_batch(self, rank: int, timeout: float | None) -> Optional[list]:
        """Pop and decode one batch from the rank channel.

        ``timeout=None`` never blocks.  Returns ``None`` when nothing is
        queued within ``timeout`` and ``[]`` for a batch that was dropped as
        corrupt (so the drain keeps going).
        """
        raise NotImplementedError

    def _decode_packed(self, buffer, rank: int) -> list:
        """Decode one packed batch buffer into chunks and control messages.

        A homogeneous step batch becomes one :class:`ColumnBatch` straight
        from the buffer; anything else (control messages, a mixed batch) is
        decoded per message and regrouped.  An unparsable buffer (a client
        killed mid-write can tear the byte stream) is counted as one dropped
        batch and skipped instead of killing the aggregator thread that
        polls here.
        """
        try:
            chunk = unpack_columns(buffer)
            if chunk is not None:
                return [chunk]
            # copy_payloads: one block copy lets the channel buffer be freed
            # immediately instead of being pinned by the payload views.
            messages = unpack_many(buffer, copy_payloads=True)
        except (WireFormatError, struct.error):
            logger.warning("rank %d: discarding unparsable transport batch", rank, exc_info=True)
            self._record_dropped(1)
            return []
        return self._columnize(rank, messages)

    def _absorb(self, rank: int, out: list, batch: list,
                max_messages: int, count: int = 0) -> int:
        """Append ``batch`` items to ``out`` within the message budget.

        ``batch`` holds control messages and/or columnar chunks or step
        blocks; a chunk or block counts its rows.  Whatever exceeds the
        budget goes to the rank's leftover deque (chunks and blocks are split
        by slicing, which makes views, not copies).  Returns the updated
        message count.
        """
        leftover = self._leftover[rank]
        for index, item in enumerate(batch):
            if count >= max_messages:
                leftover.extend(batch[index:])
                break
            if isinstance(item, (ColumnBatch, StepBlock)):
                room = max_messages - count
                if len(item) <= room:
                    out.append(item)
                    count += len(item)
                else:
                    out.append(item[:room])
                    leftover.append(item[room:])
                    count = max_messages
            else:
                out.append(item)
                count += 1
        return count

    def _leftover_count(self, rank: int) -> int:
        """Leftovers, columnar chunks and step blocks counted by sample count."""
        return sum(
            len(item) if isinstance(item, (ColumnBatch, StepBlock)) else 1
            for item in self._leftover[rank]
        )


class MessageRouter(PackedDrainMixin, Transport):
    """In-process transport: routes client blocks to per-server-rank queues.

    Each rank's queue is a :class:`RankChannel`, which client threads
    ``put`` into; the tcp subclass's front door offers frames to it.

    Parameters
    ----------
    num_server_ranks:
        Number of server processes (one per GPU in the paper).
    max_queue_size:
        Bound of each per-rank queue, in pushed parts (a step block is one).
        The paper notes that during validation "newly produced data sent by
        the clients still accumulate in the ZMQ buffer" — the bound models
        that buffer's capacity; pushes block when the queue is full,
        mimicking ZMQ's high-water-mark back-pressure.
    """

    def __init__(self, num_server_ranks: int, max_queue_size: int = 10_000) -> None:
        if num_server_ranks <= 0:
            raise ValueError("num_server_ranks must be positive")
        self.num_server_ranks = int(num_server_ranks)
        self._channels = [RankChannel(int(max_queue_size)) for _ in range(num_server_ranks)]
        self._init_leftovers(num_server_ranks)
        self._closed = threading.Event()
        self._stats_lock = threading.Lock()
        self._stats = TransportStats()
        # Stats live in the server process only (nothing is fork-shared); a
        # forked client that records a drop writes its own copy.  The pid
        # guard keeps such writes from touching a lock that may have been
        # forked while held by a server thread.
        self._origin_pid = os.getpid()

    def record_unresponsive_kill(self) -> None:
        with self._stats_lock:
            self._stats.unresponsive_kills += 1

    # ----------------------------------------------------------------- client
    def push_many(self, rank: int, batch, timeout: float | None = None) -> None:
        """Hand each part of ``batch`` over by reference — a step block whole —
        blocking while the queue is full."""
        self._check_rank(rank)
        parts = batch_parts(batch)
        channel = self._channels[rank]
        for index, part in enumerate(parts):
            if not channel.put(part, timeout):
                self._record_dropped(message_count(parts[index:]))
                if self._closed.is_set():
                    raise RouterClosed("router is closed")
                raise queue.Full
            with self._stats_lock:
                self._stats.record_batch(rank, message_count([part]), part.nbytes())

    def _record_dropped(self, count: int) -> None:
        if count and os.getpid() == self._origin_pid:
            with self._stats_lock:
                self._stats.dropped_messages += count

    # ----------------------------------------------------------------- server
    def _get_batch(self, rank: int, timeout: float | None) -> Optional[list]:
        """Pop one part as it was pushed; the drain joins runs of blocks."""
        part = self._channels[rank].take(timeout)
        return None if part is None else [part]

    def pending(self, rank: int) -> int:
        """Leftover rows plus queued items (a queued block or frame counts
        once, leftover chunks and blocks by their sample count)."""
        self._check_rank(rank)
        return self._leftover_count(rank) + len(self._channels[rank].items)

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the router and wake every producer parked on a full queue:
        a client's push raises :class:`RouterClosed` instead of waiting for a
        drain that a failed server never does, and a parked front-door reader
        sees ``closed`` (set before the wake-ups, so a reader refused after
        them never waits).  Queued items stay drainable."""
        self._closed.set()
        for channel in self._channels:
            channel.wake_all()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    @property
    def stats(self) -> TransportStats:
        """The traffic counters, with each channel's deepest backlog in items."""
        with self._stats_lock:
            for rank, channel in enumerate(self._channels):
                if channel.deepest:
                    self._stats.ring_depth_high_water[rank] = channel.deepest
        return self._stats


class RankChannel:
    """One rank's queue, bounded in items, with two kinds of producer.

    Client threads :meth:`put`, blocking on ``not_full``.  The tcp front
    door, which must not block, calls :meth:`offer`: a refusal (the item
    bound, or a byte bound the caller passes) registers a wake-up in the same
    critical section.  :meth:`take` frees room, notifies one blocked put and
    takes every registered wake-up in one critical section, then calls them
    after the lock.  So a take either precedes a refusal (which sees the
    room) or follows its registration (and wakes it): no wake-up is lost,
    and none needs a timer.
    """

    __slots__ = ("max_items", "not_empty", "not_full", "items", "nbytes",
                 "parked", "deepest", "closed")

    def __init__(self, max_items: int) -> None:
        lock = threading.Lock()
        self.max_items = max_items
        self.not_empty = threading.Condition(lock)
        self.not_full = threading.Condition(lock)
        #: ``(item, size)`` pairs in arrival order; ``nbytes`` sums the sizes.
        self.items: Deque[tuple] = deque()
        self.nbytes = 0
        self.parked: List[Callable[[], None]] = []
        #: Deepest backlog seen, in items.
        self.deepest = 0
        self.closed = False

    def put(self, item, timeout: float | None) -> bool:
        """Append ``item``, waiting up to ``timeout`` (``None``: forever)
        for room; ``False`` when the wait timed out or the channel closed."""
        with self.not_full:
            items = self.items
            if not self.not_full.wait_for(
                    lambda: self.closed or len(items) < self.max_items, timeout) or self.closed:
                return False
            items.append((item, 0))
            self.deepest = max(self.deepest, len(items))
            self.not_empty.notify()
        return True

    def offer(self, item, size: int, max_bytes: int,
              on_space: Callable[[], None]) -> bool:
        """Append ``item`` of ``size`` bytes without waiting.

        Admitted below ``max_items`` items, and when the channel is empty or
        the queued sizes stay within ``max_bytes``.  A refused item
        registers ``on_space``, called once (by the take that frees room,
        or by :meth:`wake_all`) after the lock is released.
        """
        with self.not_empty:
            items = self.items
            if len(items) >= self.max_items or (items and self.nbytes + size > max_bytes):
                self.parked.append(on_space)
                return False
            items.append((item, size))
            self.nbytes += size
            self.deepest = max(self.deepest, len(items))
            self.not_empty.notify()
        return True

    def take(self, timeout: float | None):
        """Pop the oldest item, waiting up to ``timeout`` for one (``None``:
        not at all); ``None`` when there is none."""
        with self.not_empty:
            items = self.items
            if not items and (timeout is None
                              or not self.not_empty.wait_for(lambda: items, timeout)):
                return None
            item, size = items.popleft()
            self.nbytes -= size
            self.not_full.notify()
            parked = ()
            if self.parked:
                parked, self.parked = self.parked, []
        for wake in parked:
            wake()
        return item

    def wake_all(self) -> None:
        """Close the channel to :meth:`put` and wake every waiting producer:
        each blocked put returns ``False`` and each parked wake-up fires.
        Queued items stay."""
        with self.not_full:
            self.closed = True
            self.not_full.notify_all()
            parked, self.parked = self.parked, []
        for wake in parked:
            wake()


@dataclass
class Connection:
    """Client-side handle distributing time steps over the server ranks.

    As in the paper, each client connects to *all* server ranks and sends its
    time steps round-robin, with the starting rank offset by the client id so
    that all clients do not hit the same rank with the same time step.

    Each step is one row of the next rank's pending :class:`StepBlock`; a
    block is pushed whole with one :meth:`Transport.push_many` call once it
    holds ``batch_size`` rows — on the wire backends that encodes it into
    one packed buffer.  :meth:`broadcast` (hello/finished markers) flushes
    every pending block first so control messages never overtake the data
    sent before them.
    """

    transport: Transport
    client_id: int
    batch_size: int = 1
    _next_rank: int = field(init=False)
    _pending: Dict[int, StepBlock] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self._next_rank = self.client_id % self.transport.num_server_ranks

    def append_step(self, time_step: int, time_value: float, sequence_number: int,
                    parameters: Sequence[float], payload) -> int:
        """Append one step to the next rank's block; returns the rank used.

        ``payload`` is the flat float32 field.  A row whose parameter count or
        field length differs from the block's first row raises
        :class:`ValueError` and leaves the block and the rank order as they were.
        """
        rank = self._next_rank
        block = self._pending.get(rank)
        if block is None:
            block = self._pending[rank] = StepBlock(self.client_id, len(parameters), payload.size)
        block.append(time_step, time_value, sequence_number, parameters, payload)
        self._next_rank = (rank + 1) % self.transport.num_server_ranks
        if len(block) >= self.batch_size:
            self._flush_rank(rank, timeout=None)
        return rank

    def broadcast(self, message: Message, timeout: float | None = None) -> None:
        """Send the same message to every server rank (hello/finished markers)."""
        self.flush(timeout=timeout)
        for rank in range(self.transport.num_server_ranks):
            self.transport.push(rank, message, timeout=timeout)

    def flush(self, timeout: float | None = None) -> None:
        """Push every pending per-rank block."""
        for rank in list(self._pending):
            self._flush_rank(rank, timeout=timeout)

    def _flush_rank(self, rank: int, timeout: float | None) -> None:
        block = self._pending.pop(rank, None)
        if block is not None:
            self.transport.push_many(rank, block, timeout=timeout)

    def pending(self) -> List[StepBlock]:
        """The blocks not pushed yet, at most one per rank."""
        return list(self._pending.values())


# --------------------------------------------------------------------- config
#: The transport backends :func:`make_transport` builds.
BACKENDS = ("inproc", "mp", "shm", "tcp")


@dataclass(frozen=True)
class TcpOptions:
    """Address options of the ``"tcp"`` backend.

    ``port=0`` binds an ephemeral port (the study wires the resolved address
    to its forked clients, so the default never collides).
    """

    host: str = "127.0.0.1"
    port: int = 0

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("tcp host must be non-empty")
        if not 0 <= self.port <= 65_535:
            raise ConfigurationError("tcp port must be in [0, 65535]")


@dataclass(frozen=True)
class ShardOptions:
    """Sharded serving tier: how many shards and how clients map onto them.

    With ``num_shards > 1`` the study runs that many independent server
    shards — each with its own transport endpoint, aggregator threads,
    buffer and training workers — and routes every client to exactly one
    shard through a consistent-hash ring over its client id (see
    :class:`repro.server.sharding.HashRing`).  This is the study's one shard
    count.
    """

    num_shards: int = 1

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")


@dataclass(frozen=True)
class TransportConfig:
    """Typed transport configuration: one backend plus its per-backend options.

    The one place a study's transport knobs live:
    :class:`repro.core.config.OnlineStudyConfig` takes a backend name or an
    instance of this class and normalises either through :meth:`resolve`.
    ``backend`` is one of :data:`BACKENDS`.
    """

    backend: str = "inproc"
    #: Client-side batching width (messages per packed buffer / frame).
    batch_size: int = 1
    #: Bound of each per-rank channel of the ``inproc`` (pushes), ``mp``
    #: (batches) and ``tcp`` (frames) backends; a ``tcp`` channel is also
    #: bounded in bytes (``tcp_transport.CHANNEL_BYTES``, 4 MiB of frame
    #: bodies).  ``shm`` has no rank channel — each client's ring is bounded
    #: by ``shm_ring.DEFAULT_RING_SLOTS``.
    queue_size: int = 100_000
    #: Kill a client process that has not finished after this many seconds
    #: and restart it (``None`` waits forever); process client mode only.
    process_timeout: Optional[float] = None
    #: Kill-and-restart a client whose last server-observed activity is
    #: older than this many seconds (``None`` disables the watchdog).
    heartbeat_timeout: Optional[float] = None
    tcp: TcpOptions = field(default_factory=TcpOptions)
    shard: ShardOptions = field(default_factory=ShardOptions)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown transport backend {self.backend!r} "
                f"(one of: {', '.join(BACKENDS)})"
            )
        if self.batch_size <= 0:
            raise ConfigurationError("transport batch_size must be positive")
        if self.queue_size <= 0:
            raise ConfigurationError("transport queue_size must be positive")
        if self.process_timeout is not None and self.process_timeout <= 0:
            raise ConfigurationError("process_timeout must be positive or None")
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ConfigurationError("heartbeat_timeout must be positive or None")
        if self.backend == "tcp" and self.tcp.port and self.shard.num_shards > 1:
            raise ConfigurationError(
                f"tcp port {self.tcp.port} cannot serve {self.shard.num_shards} shards: "
                "every shard binds its own front door, so leave tcp.port at 0"
            )

    @property
    def client_mode(self) -> str:
        """Launcher client mode this backend needs: ``"thread"`` for the
        by-reference ``inproc`` backend, ``"process"`` for the backends that
        survive a fork (``mp``, ``shm``, ``tcp``)."""
        return "thread" if self.backend == "inproc" else "process"

    @classmethod
    def resolve(cls, transport: Union[str, "TransportConfig"] = "inproc") -> "TransportConfig":
        """Normalize a backend string or config: a config is returned as it
        is, a backend name becomes a config with every default."""
        return transport if isinstance(transport, TransportConfig) else cls(backend=transport)

    def for_shard(self, index: int) -> "TransportConfig":
        """The single-shard transport config of shard ``index``.

        Each shard runs an ordinary single-endpoint transport, so the
        shard count is stripped from the result.
        """
        shard = self.shard
        if not 0 <= index < shard.num_shards:
            raise ConfigurationError(
                f"shard index {index} out of range for {shard.num_shards} shard(s)"
            )
        return replace(self, shard=ShardOptions())


def make_transport(
    kind: Union[str, TransportConfig],
    num_server_ranks: int,
    max_concurrent_clients: int = 8,
) -> Transport:
    """Build a transport backend from a config string or :class:`TransportConfig`.

    ``"inproc"`` is the thread-based :class:`MessageRouter`; ``"mp"`` carries
    packed batches over ``multiprocessing`` queues; ``"shm"`` gives every
    client one shared-memory SPSC ring per rank; ``"tcp"`` frames the packed
    batches over sockets into the asyncio front door.
    ``max_concurrent_clients`` sizes the shm slot-lease table (the grid
    scales with the *concurrency*, not the ensemble size).
    """
    config = TransportConfig.resolve(kind)
    ranks = int(num_server_ranks)
    match config.backend:
        case "inproc":
            return MessageRouter(ranks, max_queue_size=config.queue_size)
        case "mp":
            from repro.parallel.mp_transport import MultiprocessTransport

            return MultiprocessTransport(ranks, max_queue_size=config.queue_size)
        case "shm":
            from repro.parallel.shm_ring import ShmRingTransport

            return ShmRingTransport(ranks, max_concurrent_clients=int(max_concurrent_clients))
        case "tcp":
            from repro.parallel.tcp_transport import TcpTransport

            return TcpTransport(
                ranks,
                max_queue_size=config.queue_size,
                host=config.tcp.host,
                port=config.tcp.port,
            )
