"""Pluggable transport layer connecting clients to server ranks.

This is the ZeroMQ substitute.  A :class:`Transport` owns one bounded channel
per server rank; clients obtain a :class:`Connection` and push messages to a
chosen server rank, while each server data-aggregator thread drains its own
channel with :meth:`Transport.poll_batches` — samples leave every backend as
:class:`~repro.buffers.columns.ColumnBatch` chunks, control messages as
plain objects.  Four backends implement the interface:

* :class:`MessageRouter` — the in-process backend: one ``queue.Queue`` per
  rank, messages handed over by reference (no serialisation).
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
  (:class:`repro.server.serving.AsyncFrontDoor`).

Backend selection is a registry: :func:`make_transport` builds a backend
from a study-config string or a typed :class:`TransportConfig`, and
:func:`register_backend` plugs in new backends without touching call sites.
All backends keep aggregate statistics (messages/bytes routed, drops) used
by the throughput experiments.
"""

from __future__ import annotations

import queue
import struct
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.buffers.columns import ColumnBatch
from repro.parallel.messages import (
    Message,
    TimeStepMessage,
    WireFormatError,
    columnize,
    unpack_columns,
    unpack_many,
)
from repro.utils.constants import (
    DEFAULT_HASH_RING_REPLICAS,
    DEFAULT_RING_SLOT_BYTES,
    DEFAULT_RING_SLOTS,
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
    because the transport was already closed.  The ring-buffer backend adds
    ``torn_batches`` (batches lost to a writer killed mid-write) and
    ``ring_depth_high_water`` (deepest observed backlog per rank, in
    batches); both stay at their defaults on the other backends.
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

    def record(self, rank: int, nbytes: int) -> None:
        self.messages_routed += 1
        self.bytes_routed += int(nbytes)
        self.per_rank_messages[rank] = self.per_rank_messages.get(rank, 0) + 1

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

    def push_many(self, rank: int, messages: List[Message], timeout: float | None = None) -> None:
        """Push a batch to ``rank``; wire backends serialise it as one buffer.

        A failed push drops the whole remaining batch, so every backend
        accounts a rejected batch identically in ``stats.dropped_messages``.
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

    def _columnize(self, rank: int, messages: List[Message]) -> list:
        """Regroup decoded ``messages`` into chunks and control messages.

        A ragged step run is rejected here, at the boundary, like a corrupt
        buffer: logged, counted as one dropped batch, and the time steps of
        ``messages`` are discarded (control messages are still delivered, so
        a client's finished marker is never lost with them).
        """
        try:
            return columnize(messages)
        except WireFormatError:
            logger.warning("rank %d: discarding ragged time-step run", rank, exc_info=True)
            self._record_dropped(1)
            return [m for m in messages if not isinstance(m, TimeStepMessage)]

    def pending(self, rank: int) -> int:
        """Number of messages currently queued for server rank ``rank``."""
        raise NotImplementedError

    def total_pending(self) -> int:
        """Messages queued across all ranks."""
        return sum(self.pending(rank) for rank in range(self.num_server_ranks))

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the transport; subsequent pushes raise :class:`RouterClosed`."""
        raise NotImplementedError

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
    """Server-side drain machinery shared by the wire backends (mp, shm, tcp).

    Wire backends deliver whole packed batches per channel slot; a poll
    budget therefore rarely lines up with batch boundaries.  This mixin
    implements the budgeted drain — block for the first batch only, then
    drain without blocking, park the overshoot in a per-rank leftover deque —
    plus the shared packed-buffer decode (columnar chunk straight from the
    buffer, mixed batches regrouped, corrupt buffers dropped and counted).

    A concrete backend provides:

    * ``self._leftover`` — one ``deque`` per rank, created via
      :meth:`_init_leftovers` in ``__init__`` (each rank has exactly one
      aggregator thread, so the deques need no lock);
    * :meth:`_get_batch` — pop and decode one batch from the rank channel;
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

        Returns ``None`` when nothing is queued within ``timeout`` and ``[]``
        for a batch that was dropped as corrupt (so the drain keeps going).
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

        ``batch`` holds control messages and/or columnar chunks; a chunk counts
        ``len(chunk)`` messages.  Whatever exceeds the budget goes to the
        rank's leftover deque (chunks are split by slicing, which makes
        column views, not copies).  Returns the updated message count.
        """
        leftover = self._leftover[rank]
        for index, item in enumerate(batch):
            if count >= max_messages:
                leftover.extend(batch[index:])
                break
            if isinstance(item, ColumnBatch):
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
        """Deserialised leftovers, columnar chunks counted by sample count."""
        return sum(
            len(item) if isinstance(item, ColumnBatch) else 1
            for item in self._leftover[rank]
        )


class MessageRouter(Transport):
    """In-process transport: routes client messages to per-server-rank queues.

    Parameters
    ----------
    num_server_ranks:
        Number of server processes (one per GPU in the paper).
    max_queue_size:
        Bound of each per-rank queue.  The paper notes that during validation
        "newly produced data sent by the clients still accumulate in the ZMQ
        buffer" — the bound models that buffer's capacity; pushes block when
        the queue is full, mimicking ZMQ's high-water-mark back-pressure.
    """

    def __init__(self, num_server_ranks: int, max_queue_size: int = 10_000) -> None:
        if num_server_ranks <= 0:
            raise ValueError("num_server_ranks must be positive")
        self.num_server_ranks = int(num_server_ranks)
        self.max_queue_size = int(max_queue_size)
        self._queues: List[queue.Queue] = [
            queue.Queue(maxsize=max_queue_size) for _ in range(num_server_ranks)
        ]
        self._closed = threading.Event()
        self._stats_lock = threading.Lock()
        self._stats = TransportStats()

    def record_unresponsive_kill(self) -> None:
        with self._stats_lock:
            self._stats.unresponsive_kills += 1

    # ----------------------------------------------------------------- client
    def push_many(self, rank: int, messages: List[Message], timeout: float | None = None) -> None:
        """Hand ``messages`` over by reference, each blocking while the queue is full."""
        self._check_rank(rank)
        for index, message in enumerate(messages):
            if self._closed.is_set():
                self._record_dropped(len(messages) - index)
                raise RouterClosed("router is closed")
            try:
                self._queues[rank].put(message, timeout=timeout)
            except queue.Full:
                self._record_dropped(len(messages) - index)
                raise
            with self._stats_lock:
                self._stats.record(rank, message.nbytes())

    def _record_dropped(self, count: int) -> None:
        if count:
            with self._stats_lock:
                self._stats.dropped_messages += count

    # ----------------------------------------------------------------- server
    def poll_batches(self, rank: int, max_messages: int = 64,
        timeout: float | None = 0.05) -> list:
        """Drain the rank queue; step runs are regrouped into chunks here (the
        by-reference counterpart of the wire backends' packed decode)."""
        if max_messages <= 0:
            raise ValueError("max_messages must be positive")
        self._check_rank(rank)
        q = self._queues[rank]
        try:
            messages = [q.get_nowait() if timeout is None else q.get(timeout=timeout)]
        except queue.Empty:
            return []
        while len(messages) < max_messages:
            try:
                messages.append(q.get_nowait())
            except queue.Empty:
                break
        return self._columnize(rank, messages)

    def pending(self, rank: int) -> int:
        return self._queues[rank].qsize()

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._closed.set()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    @property
    def stats(self) -> TransportStats:
        return self._stats


@dataclass
class Connection:
    """Client-side handle distributing messages over the server ranks.

    As in the paper, each client connects to *all* server ranks and sends its
    time steps round-robin, with the starting rank offset by the client id so
    that all clients do not hit the same rank with the same time step.

    The connection accumulates per-rank batches and pushes each rank's batch
    with a single :meth:`Transport.push_many` call once it holds
    ``batch_size`` messages — on the wire backends that serialises the whole
    batch into one packed buffer.  :meth:`broadcast` (hello/finished markers)
    flushes every pending batch first so control messages never overtake the
    data sent before them.
    """

    transport: Transport
    client_id: int
    batch_size: int = 1
    _next_rank: int = field(init=False)
    _pending: Dict[int, List[Message]] = field(init=False, default_factory=dict)
    sent_messages: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self._next_rank = self.client_id % self.transport.num_server_ranks

    def send_round_robin(self, message: Message, timeout: float | None = None) -> int:
        """Send to the next rank in round-robin order; returns the rank used."""
        rank = self._next_rank
        self._next_rank = (rank + 1) % self.transport.num_server_ranks
        batch = self._pending.setdefault(rank, [])
        batch.append(message)
        if len(batch) >= self.batch_size:
            self._flush_rank(rank, timeout=timeout)
        return rank

    def send_to(self, rank: int, message: Message, timeout: float | None = None) -> None:
        """Send to an explicit server rank (used for control messages)."""
        self.transport.push(rank, message, timeout=timeout)
        self.sent_messages += 1

    def broadcast(self, message: Message, timeout: float | None = None) -> None:
        """Send the same message to every server rank (hello/finished markers)."""
        self.flush(timeout=timeout)
        for rank in range(self.transport.num_server_ranks):
            self.transport.push(rank, message, timeout=timeout)
        self.sent_messages += self.transport.num_server_ranks

    def flush(self, timeout: float | None = None) -> None:
        """Push every pending per-rank batch."""
        for rank in list(self._pending):
            self._flush_rank(rank, timeout=timeout)

    def _flush_rank(self, rank: int, timeout: float | None) -> None:
        batch = self._pending.pop(rank, None)
        if batch:
            self.transport.push_many(rank, batch, timeout=timeout)
            self.sent_messages += len(batch)

    @property
    def pending_messages(self) -> int:
        """Messages buffered client-side, not yet pushed to the transport."""
        return sum(len(batch) for batch in self._pending.values())

    def pending(self) -> List[Message]:
        """The buffered messages themselves (send order within each rank)."""
        return [message for batch in self._pending.values() for message in batch]


# --------------------------------------------------------------------- config
@dataclass(frozen=True)
class ShmOptions:
    """Geometry of the ``"shm"`` backend's per-(client, rank) SPSC rings.

    Each ring holds ``ring_slots`` packed batches of at most
    ``ring_slot_bytes`` bytes; oversized batches are split automatically and
    a single message that cannot fit raises, naming the knob.
    """

    ring_slots: int = DEFAULT_RING_SLOTS
    ring_slot_bytes: int = DEFAULT_RING_SLOT_BYTES

    def __post_init__(self) -> None:
        if self.ring_slots <= 0:
            raise ConfigurationError("ring_slots must be positive")
        if self.ring_slot_bytes <= 0:
            raise ConfigurationError("ring_slot_bytes must be positive")


#: Payload compression codecs the tcp backend understands.  ``"zlib"`` is
#: always available (stdlib); ``"lz4"`` needs the optional ``lz4`` package
#: and fails with an actionable error at transport construction otherwise.
TCP_COMPRESSIONS = (None, "zlib", "lz4")


@dataclass(frozen=True)
class TcpOptions:
    """Address and framing options of the ``"tcp"`` backend.

    ``port=0`` binds an ephemeral port (the study wires the resolved address
    to its forked clients, so the default never collides).  ``compression``
    is applied per batch and only when it actually shrinks the payload; the
    frame header flags the codec, so mixed streams decode transparently.
    """

    host: str = "127.0.0.1"
    port: int = 0
    compression: Optional[str] = None
    connect_timeout: float = 10.0

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("tcp host must be non-empty")
        if not 0 <= self.port <= 65_535:
            raise ConfigurationError("tcp port must be in [0, 65535]")
        if self.compression not in TCP_COMPRESSIONS:
            raise ConfigurationError(
                f"tcp compression must be one of {TCP_COMPRESSIONS}, "
                f"got {self.compression!r}"
            )
        if self.connect_timeout <= 0:
            raise ConfigurationError("tcp connect_timeout must be positive")


def parse_endpoint(value: str) -> Tuple[str, int]:
    """Split a ``"host:port"`` shard endpoint, validating both parts."""
    host, sep, port_text = str(value).rpartition(":")
    if not sep or not host:
        raise ConfigurationError(f"shard endpoint {value!r} is not of the form 'host:port'")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"shard endpoint {value!r} has a non-integer port"
        ) from None
    if not 0 <= port <= 65_535:
        raise ConfigurationError(f"shard endpoint {value!r} port must be in [0, 65535]")
    return host, port


@dataclass(frozen=True)
class ShardOptions:
    """Sharded serving tier: how many shards and how clients map onto them.

    With ``num_shards > 1`` the study runs that many independent server
    shards — each with its own transport endpoint, aggregator threads,
    buffer and training workers — and routes every client to exactly one
    shard through a consistent-hash ring over its client id
    (``hash_replicas`` virtual nodes per shard, see
    :class:`repro.server.sharding.HashRing`).  ``endpoints`` optionally pins
    each ``tcp`` shard to a ``"host:port"`` address so shards can live on
    different hosts; within one host the ``shm`` backend needs no addresses
    and ``endpoints`` stays empty.
    """

    num_shards: int = 1
    hash_replicas: int = DEFAULT_HASH_RING_REPLICAS
    endpoints: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        if self.hash_replicas <= 0:
            raise ConfigurationError("hash_replicas must be positive")
        object.__setattr__(self, "endpoints", tuple(self.endpoints))
        if self.endpoints and len(self.endpoints) != self.num_shards:
            raise ConfigurationError(
                f"shard_endpoints names {len(self.endpoints)} addresses "
                f"for {self.num_shards} shards"
            )
        for endpoint in self.endpoints:
            parse_endpoint(endpoint)


@dataclass(frozen=True)
class TransportConfig:
    """Typed transport configuration: one backend plus its per-backend options.

    The one place a study's transport knobs live:
    :class:`repro.core.config.OnlineStudyConfig` takes a backend name or an
    instance of this class and normalises either through :meth:`resolve`.
    """

    backend: str = "inproc"
    #: Client-side batching width (messages per packed buffer / frame).
    batch_size: int = 1
    #: Bound of each per-rank channel of the ``inproc`` (messages), ``mp``
    #: (batches) and ``tcp`` (frames) backends; ``shm`` has no rank channel —
    #: each client's ring is bounded by ``shm.ring_slots``.
    queue_size: int = 100_000
    #: Kill a client process that has not finished after this many seconds
    #: and restart it (``None`` waits forever); process client mode only.
    process_timeout: Optional[float] = None
    #: Kill-and-restart a client whose last server-observed activity is
    #: older than this many seconds (``None`` disables the watchdog).
    heartbeat_timeout: Optional[float] = None
    shm: ShmOptions = field(default_factory=ShmOptions)
    tcp: TcpOptions = field(default_factory=TcpOptions)
    shard: ShardOptions = field(default_factory=ShardOptions)

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown transport backend {self.backend!r} "
                f"(registered: {', '.join(sorted(_BACKENDS))})"
            )
        if self.batch_size <= 0:
            raise ConfigurationError("transport batch_size must be positive")
        if self.queue_size <= 0:
            raise ConfigurationError("transport queue_size must be positive")
        if self.process_timeout is not None and self.process_timeout <= 0:
            raise ConfigurationError("process_timeout must be positive or None")
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ConfigurationError("heartbeat_timeout must be positive or None")
        if self.shard.endpoints and self.backend != "tcp":
            raise ConfigurationError(
                "shard_endpoints only apply to the 'tcp' backend "
                f"(got backend {self.backend!r})"
            )

    @property
    def client_mode(self) -> str:
        """Launcher client mode this backend needs (``"thread"``/``"process"``)."""
        return _BACKENDS[self.backend].client_mode

    @classmethod
    def resolve(
        cls,
        transport: Union[str, "TransportConfig"] = "inproc",
        *,
        num_shards: Optional[int] = None,
        shard_endpoints: Optional[Sequence[str]] = None,
        hash_replicas: Optional[int] = None,
    ) -> "TransportConfig":
        """Normalize a backend string or config plus the sharding overrides.

        The single normalization point of the transport API: a ``None``
        override keeps the base value, and validation runs once on the
        result.
        """
        base = transport if isinstance(transport, TransportConfig) else cls(backend=transport)
        shard_updates: dict = {}
        if num_shards is not None:
            shard_updates["num_shards"] = int(num_shards)
        if shard_endpoints is not None:
            shard_updates["endpoints"] = tuple(shard_endpoints)
        if hash_replicas is not None:
            shard_updates["hash_replicas"] = int(hash_replicas)
        if not shard_updates:
            return base
        return replace(base, shard=replace(base.shard, **shard_updates))

    def for_shard(self, index: int) -> "TransportConfig":
        """The single-shard transport config of shard ``index``.

        Each shard runs an ordinary single-endpoint transport, so the
        sharding options are stripped from the result; when
        ``shard.endpoints`` pins addresses, the tcp options are rebound to
        this shard's ``host:port``.
        """
        shard = self.shard
        if not 0 <= index < shard.num_shards:
            raise ConfigurationError(
                f"shard index {index} out of range for {shard.num_shards} shard(s)"
            )
        updates: dict = {"shard": ShardOptions(hash_replicas=shard.hash_replicas)}
        if shard.endpoints:
            host, port = parse_endpoint(shard.endpoints[index])
            updates["tcp"] = replace(self.tcp, host=host, port=port)
        return replace(self, **updates)


# ------------------------------------------------------------------- registry
#: Factory signature of a registered backend: ``(config, num_server_ranks,
#: max_concurrent_clients) -> Transport``.
TransportFactory = Callable[[TransportConfig, int, int], Transport]


@dataclass(frozen=True)
class _BackendEntry:
    factory: TransportFactory
    client_mode: str


_BACKENDS: Dict[str, _BackendEntry] = {}


def register_backend(name: str, factory: TransportFactory,
                     client_mode: str = "thread") -> None:
    """Register a transport backend under a config string.

    ``client_mode`` tells the study how the launcher must run clients against
    this backend: ``"thread"`` for shared-memory-by-reference backends,
    ``"process"`` for backends that survive a fork (the built-in ``mp``,
    ``shm`` and ``tcp`` backends).  Re-registering a name replaces the
    previous factory, which lets tests install instrumented backends.
    """
    if client_mode not in ("thread", "process"):
        raise ValueError(f"client_mode must be 'thread' or 'process', got {client_mode!r}")
    _BACKENDS[str(name)] = _BackendEntry(factory=factory, client_mode=client_mode)


def available_backends() -> Tuple[str, ...]:
    """Names of the registered transport backends, sorted."""
    return tuple(sorted(_BACKENDS))


def _make_inproc(config: TransportConfig, num_server_ranks: int,
                 max_concurrent_clients: int) -> Transport:
    return MessageRouter(num_server_ranks, max_queue_size=config.queue_size)


def _make_mp(config: TransportConfig, num_server_ranks: int,
             max_concurrent_clients: int) -> Transport:
    from repro.parallel.mp_transport import MultiprocessTransport

    return MultiprocessTransport(num_server_ranks, max_queue_size=config.queue_size)


def _make_shm(config: TransportConfig, num_server_ranks: int,
              max_concurrent_clients: int) -> Transport:
    from repro.parallel.shm_ring import ShmRingTransport

    return ShmRingTransport(
        num_server_ranks,
        max_concurrent_clients=max_concurrent_clients,
        ring_slots=config.shm.ring_slots,
        ring_slot_bytes=config.shm.ring_slot_bytes,
    )


def _make_tcp(config: TransportConfig, num_server_ranks: int,
              max_concurrent_clients: int) -> Transport:
    from repro.parallel.tcp_transport import TcpTransport

    options = config.tcp
    return TcpTransport(
        num_server_ranks,
        max_queue_size=config.queue_size,
        host=options.host,
        port=options.port,
        compression=options.compression,
        connect_timeout=options.connect_timeout,
    )


register_backend("inproc", _make_inproc, client_mode="thread")
register_backend("mp", _make_mp, client_mode="process")
register_backend("shm", _make_shm, client_mode="process")
register_backend("tcp", _make_tcp, client_mode="process")


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
    scales with the *concurrency*, not the ensemble size).  Backends
    registered via :func:`register_backend` are constructed the same way.
    """
    config = TransportConfig.resolve(kind)
    factory = _BACKENDS[config.backend].factory
    return factory(config, int(num_server_ranks), int(max_concurrent_clients))
