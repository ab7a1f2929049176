"""TCP transport backend: packed batches as length-prefixed frames.

The first backend where client and server share **no memory**: clients
connect to the server's asyncio front door
(:class:`repro.server.serving.AsyncFrontDoor`) by address and stream the
same packed batched wire format the mp/shm backends use
(:func:`repro.parallel.messages.pack_many` layout), wrapped in the frame
protocol of :mod:`repro.parallel.framing` — so the study's fault protocol
(restart-resend-dedup, heartbeat watchdog) works unchanged over sockets.

Client side: each pushing thread keeps one lazily created
:class:`_ClientWriter` (socket + reusable pack scratch).  The socket is
opened at the first push **after** any fork — forked client processes
inherit only the address, never a live socket — and opens with a
handshake frame carrying the client id and its dedup epoch (the hello's
restart count).  Batches are packed with ``plan_many``/``write_into``
straight into the scratch behind a reserved frame header, and the whole
frame leaves with one ``sendall`` — no intermediate copy.

Server side: :class:`TcpTransport` is a
:class:`repro.parallel.transport.MessageRouter` whose producer is the
front door.  It offers each received frame to the rank's
:class:`~repro.parallel.transport.RankChannel` — the one the inproc
clients ``put`` into — bounded in frames (``queue_size``) and in body
bytes (:data:`CHANNEL_BYTES`).  A reader refused by a full channel parks,
and the aggregator's drain that frees room wakes it.  The aggregator
threads drain the channels through the shared
:class:`repro.parallel.transport.PackedDrainMixin` machinery, where the
frame body is decoded into columnar chunks and control messages.
Traffic statistics are recorded at decode time in the server process;
drops that happen inside a forked client process (send timeout,
connection loss) are counted in that process's copy of the stats and
surface server-side as torn or missing frames instead.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
from typing import Callable, Dict, Optional

from repro.buffers.columns import ColumnBatch
from repro.parallel import framing
from repro.parallel.messages import ClientHello, batch_parts, message_count, plan_many
from repro.parallel.transport import Connection, MessageRouter, RouterClosed
from repro.utils.logging import get_logger

logger = get_logger("parallel.tcp_transport")

_SCRATCH_BYTES = 64 * 1024

#: Bound on the frame bodies one rank channel queues, in bytes: 32 of
#: ``serving.tcp_2shard``'s 128 KiB frames.  The backlog lives in the server's
#: heap, so a bound in frames alone (256 frames there, 33.5 MB) sets its RSS.
#: Bounds of 2 MiB and below starved the aggregator: ingest fell.  An empty
#: channel admits any frame, so a frame up to the 64 MiB frame cap still moves.
CHANNEL_BYTES = 4 * 1024 * 1024

#: Client-side bound (seconds) on establishing a connection to the front door.
CONNECT_TIMEOUT = 10.0


class _ClientWriter:
    """One pushing thread's socket to the front door, created lazily post-fork.

    Keyed per (thread, pid): the transport object crosses the launcher's
    fork by reference, but a socket must not — the child opens its own
    connection (and sends its own handshake) at its first push.
    """

    __slots__ = ("host", "port", "client_id", "epoch", "pid", "_sock", "_scratch")

    def __init__(self, host: str, port: int, client_id: int) -> None:
        self.host = host
        self.port = port
        self.client_id = int(client_id)
        self.epoch = 0
        self.pid = os.getpid()
        self._sock: Optional[socket.socket] = None
        self._scratch = bytearray(_SCRATCH_BYTES)

    def _ensure_connected(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        sock = socket.create_connection((self.host, self.port), timeout=CONNECT_TIMEOUT)
        # One small frame per control message must not sit in Nagle's buffer
        # waiting for a payload that may be seconds away.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(framing.encode_hello(self.client_id, self.epoch))
        self._sock = sock
        return sock

    def send_batch(self, rank: int, parts: list, timeout: Optional[float]) -> int:
        """Pack, frame and send one batch; returns the frame's wire bytes.

        The batch is packed behind the scratch's reserved header prefix, the
        header is written into that prefix, and the contiguous frame leaves
        with one ``sendall`` — zero extra copies."""
        plan = plan_many(parts)
        needed = framing.FRAME_HEADER_BYTES + plan.nbytes
        if len(self._scratch) < needed:
            self._scratch = bytearray(max(needed, 2 * len(self._scratch)))
        scratch = self._scratch
        plan.write_into(scratch, framing.FRAME_HEADER_BYTES)
        framing.pack_header_into(scratch, 0, framing.KIND_BATCH, rank, plan.nbytes)
        sock = self._ensure_connected()
        sock.settimeout(timeout)
        sock.sendall(memoryview(scratch)[:needed])
        return needed

    def reset(self) -> None:
        """Drop the socket; a timed-out sendall leaves a part-written frame,
        so the stream can only be resynced by reconnecting."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


class TcpTransport(MessageRouter):
    """A :class:`MessageRouter` whose rank channels are fed over TCP.

    Clients stream frames into an asyncio front door, which hands each
    received frame to its rank's :class:`RankChannel` with the non-blocking
    :meth:`try_enqueue`; the router's close, stats and drop counting are
    inherited.

    Parameters
    ----------
    num_server_ranks:
        Number of server ranks (aggregator threads); at most 255 (the frame
        header routes with a u8 rank field).
    max_queue_size:
        Bound of each server-side rank channel **in frames**; with
        client-side batching a frame holds up to ``Connection.batch_size``
        messages.  The channel is also bounded to :data:`CHANNEL_BYTES` of
        frame bodies.  A full channel parks that client's reader task until
        a drain frees room, which backs the pressure up the TCP window into
        the client's ``sendall``.
    host, port:
        Bind address of the front door; ``port=0`` binds an ephemeral port,
        resolved into ``host``/``port`` before any client connects.
    """

    def __init__(
        self,
        num_server_ranks: int,
        max_queue_size: int = 10_000,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if num_server_ranks > 255:
            raise ValueError("tcp transport routes with a u8 rank field (max 255 ranks)")
        super().__init__(num_server_ranks, max_queue_size)
        #: client id -> last announced dedup epoch, from connection handshakes.
        self._client_epochs: Dict[int, int] = {}
        self._local = threading.local()
        # The serving tier sits above parallel/ in the layering; imported
        # lazily so the parallel package stays importable on its own.
        from repro.server.serving import AsyncFrontDoor

        self._front_door = AsyncFrontDoor(self, host=host, port=int(port))
        self.host, self.port = self._front_door.start()

    # ----------------------------------------------------------------- client
    def connect(self, client_id: int, batch_size: int = 1) -> Connection:
        connection = super().connect(client_id, batch_size)
        # Reset this thread's writer so the next push opens a socket whose
        # handshake announces the new client id.
        self._local.client_id = int(client_id)
        writer = getattr(self._local, "writer", None)
        if writer is not None:
            writer.reset()
            self._local.writer = None
        return connection

    def _writer(self) -> _ClientWriter:
        local = self._local
        writer = getattr(local, "writer", None)
        if writer is None or writer.pid != os.getpid():
            writer = _ClientWriter(
                self.host, self.port, client_id=int(getattr(local, "client_id", -1))
            )
            local.writer = writer
        return writer

    def push_many(self, rank: int, batch, timeout: float | None = None) -> None:
        """Serialise ``batch`` into one frame and send it to the front door."""
        self._check_rank(rank)
        parts = batch_parts(batch)
        if not parts:
            return
        if self._closed.is_set():
            self._record_dropped(message_count(parts))
            raise RouterClosed("transport is closed")
        writer = self._writer()
        first = parts[0]
        if isinstance(first, ClientHello):
            # The hello's restart count is the dedup epoch the next-opened
            # connection announces in its handshake (control messages flush
            # ahead of data, so the hello is always the first push of a run).
            writer.epoch = int(first.restart_count)
        try:
            writer.send_batch(rank, parts, timeout)
        except TimeoutError:
            writer.reset()
            self._record_dropped(message_count(parts))
            raise queue.Full(f"tcp send to rank {rank} timed out") from None
        except OSError as exc:
            writer.reset()
            self._record_dropped(message_count(parts))
            raise RouterClosed(
                f"tcp connection to {self.host}:{self.port} lost: {exc}"
            ) from exc

    # ----------------------------------------------- front-door sink interface
    # Called from the event-loop thread; everything here must stay lock-light
    # and non-blocking.
    def try_enqueue(self, rank: int, entry: tuple,
                    on_space: Callable[[], None]) -> bool:
        """Offer one received ``(body, wire_nbytes)`` frame to its channel.

        The channel admits the frame below ``queue_size`` frames, and when
        it is empty or the body fits within :data:`CHANNEL_BYTES` (read at
        each call).  A refused frame registers ``on_space``, called once
        (from the draining thread, or at :meth:`close`) after room was freed.
        """
        return self._channels[rank].offer(entry, len(entry[0]), CHANNEL_BYTES, on_space)

    def register_client(self, client_id: int, epoch: int, peer) -> None:
        """Record a connection handshake (client id + dedup epoch)."""
        with self._stats_lock:
            previous = self._client_epochs.get(client_id)
            self._client_epochs[client_id] = max(int(epoch), previous or 0)
        if previous is not None and epoch > previous:
            logger.info("client %d reconnected from %s with epoch %d (was %d): "
                        "expecting a resend, the message log dedups",
                        client_id, peer, epoch, previous)

    def record_torn_frame(self) -> None:
        """Count a connection that died mid-frame (client killed mid-send)."""
        with self._stats_lock:
            self._stats.torn_batches += 1

    def record_rejected_frame(self) -> None:
        """Count a frame dropped for protocol violations or at teardown."""
        self._record_dropped(1)

    # ----------------------------------------------------------------- server
    def _get_batch(self, rank: int, timeout: float | None) -> Optional[list]:
        """Pop one received frame and decode it.

        Traffic is recorded here — at decode, in the server process — since
        pushes happen in client processes whose stats copies are invisible.
        An undecodable body counts as one dropped batch and is skipped
        (``_decode_packed``), like a corrupt mp queue buffer.
        """
        entry = self._channels[rank].take(timeout)
        if entry is None:
            return None
        body, wire_nbytes = entry
        batch = self._decode_packed(body, rank)
        delivered = sum(
            len(item) if isinstance(item, ColumnBatch) else 1 for item in batch
        )
        if delivered:
            with self._stats_lock:
                self._stats.record_batch(rank, delivered, wire_nbytes)
        return batch

    # --------------------------------------------------------------- lifecycle
    def shutdown(self) -> None:
        """Close, stop the front door and release the queued frames."""
        self.close()
        self._front_door.stop()
        writer = getattr(self._local, "writer", None)
        if writer is not None:
            writer.reset()
            self._local.writer = None
        for rank, channel in enumerate(self._channels):
            with channel.not_empty:
                channel.items.clear()
                channel.nbytes = 0
                channel.parked.clear()  # close() woke every earlier one
            self._leftover[rank].clear()
