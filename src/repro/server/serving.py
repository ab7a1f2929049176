"""Asyncio serving tier: the TCP front door of the training server.

:class:`AsyncFrontDoor` runs an ``asyncio`` accept loop in one daemon thread
of the **server** process.  Each accepted connection is a per-client reader
task that

1. reads the handshake frame (client id + dedup epoch, see
   :mod:`repro.parallel.framing`) and registers the client with the sink;
2. then streams batch frames — header, body — and enqueues them on the
   sink's per-rank channels, where the aggregator threads drain them through
   the normal ``poll_batches``/columnar decode path.

Back-pressure is per connection: when a rank channel is full the reader task
stops reading that socket and awaits the channel's wake-up, which the
aggregator's drain sends once it has freed room; meanwhile the kernel's TCP
window fills and the remote client's ``sendall`` blocks — the socket
equivalent of the ZMQ high-water-mark contract the other backends model with
bounded queues.  Other connections keep streaming meanwhile.

Failure semantics: a connection that ends mid-frame (client killed between
``send`` calls of one frame) counts one torn batch, exactly like a
shared-memory ring writer killed mid-commit; a protocol violation (bad
magic, oversized length, unknown kind) drops the connection and counts one
rejected frame.  Both leave the accept loop and every other connection
running.

The sink is duck-typed (in practice
:class:`repro.parallel.tcp_transport.TcpTransport`) and must provide
``num_server_ranks``, ``closed``, ``try_enqueue(rank, entry, on_space)``,
``register_client(client_id, epoch, peer)``, ``record_torn_frame()`` and
``record_rejected_frame()``; every one of those calls must be safe to make
from the event-loop thread.  ``try_enqueue`` never blocks: it returns
``False`` for a full channel and then calls ``on_space`` exactly once, from
whichever thread freed room or closed the sink (``closed`` already reads
true by then) — on ``TcpTransport`` it is one
:meth:`repro.parallel.transport.RankChannel.offer`, whose ``take`` and
``wake_all`` fire the wake-up.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional, Set, Tuple

from repro.parallel import framing
from repro.utils.exceptions import ReproError
from repro.utils.logging import get_logger

logger = get_logger("server.serving")

#: Bound on waiting for the accept loop to come up or tear down.
_LIFECYCLE_TIMEOUT = 30.0


class AsyncFrontDoor:
    """Accept loop + per-connection reader tasks feeding a transport sink."""

    def __init__(
        self,
        sink,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._sink = sink
        self._host = host
        self._port = int(port)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        # Reader-task bookkeeping, touched only from the event-loop thread.
        self._tasks: Set[asyncio.Task] = set()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> Tuple[str, int]:
        """Bind and serve; returns the resolved (host, port)."""
        if self._thread is not None:
            raise RuntimeError("front door already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-tcp-front-door", daemon=True
        )
        self._thread.start()
        self._started.wait(_LIFECYCLE_TIMEOUT)
        if self._address is None:
            raise self._sink.failure or ReproError(
                "tcp front door failed to start within the lifecycle timeout")
        return self._address

    def stop(self, timeout: float = _LIFECYCLE_TIMEOUT) -> None:
        """Stop accepting, cancel the reader tasks and join the loop thread."""
        thread = self._thread
        if thread is None or not thread.is_alive():
            return
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._request_stop)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        thread.join(timeout)
        if thread.is_alive():
            logger.warning("tcp front door thread did not stop within %.1fs", timeout)

    def _request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def _run(self) -> None:
        """The event loop until :meth:`stop`; :meth:`start` raises a failed bind."""
        try:
            self._loop = asyncio.new_event_loop()
            self._loop.run_until_complete(self._main())
        except BaseException as exc:  # noqa: BLE001 - thread boundary
            self._sink.fail(exc)
        finally:
            self._loop.close()
            self._loop = None
            self._started.set()  # unblock a start() waiting on a failed bind

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(self._serve, self._host, self._port)
        sockname = server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            for task in list(self._tasks):
                task.cancel()
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
            try:
                await server.wait_closed()
            except (asyncio.CancelledError, RuntimeError):
                pass

    # ----------------------------------------------------------- connections
    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        peer = writer.get_extra_info("peername")
        try:
            await self._serve_connection(reader, peer)
        except asyncio.CancelledError:
            pass  # shutdown path: close the socket quietly
        except asyncio.IncompleteReadError:
            # EOF landed inside a frame: the client died mid-send, exactly a
            # ring writer killed mid-commit.  EOF *between* frames is a clean
            # close and never reaches here.
            self._sink.record_torn_frame()
            logger.warning("connection %s: stream ended mid-frame (torn batch)", peer)
        except framing.FrameError as exc:
            self._sink.record_rejected_frame()
            logger.warning("connection %s: protocol violation, dropping: %s", peer, exc)
        except (ConnectionError, OSError) as exc:
            self._sink.record_torn_frame()
            logger.warning("connection %s: reset mid-stream: %s", peer, exc)
        except Exception as exc:  # noqa: BLE001 - a server fault, not the client's
            self._sink.fail(exc)
        finally:
            if task is not None:
                self._tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(self, reader: asyncio.StreamReader, peer) -> None:
        frame = await self._read_frame(reader)
        if frame is None:
            return  # connected and went away without a handshake
        kind, rank, body, wire_nbytes = frame
        if kind != framing.KIND_HELLO:
            raise framing.FrameError("first frame must be a hello")
        client_id, epoch = framing.decode_hello(body)
        self._sink.register_client(client_id, epoch, peer)
        logger.debug("connection %s: client %d (epoch %d) connected", peer, client_id, epoch)
        loop = asyncio.get_running_loop()
        space = asyncio.Event()

        def on_space() -> None:  # called from the thread that drained or closed
            try:
                loop.call_soon_threadsafe(space.set)
            except RuntimeError:
                pass  # loop closed: the reader it would wake is gone

        while True:
            frame = await self._read_frame(reader)
            if frame is None:
                return  # clean close between frames
            kind, rank, body, wire_nbytes = frame
            if kind != framing.KIND_BATCH:
                raise framing.FrameError(f"unexpected frame kind {kind} after handshake")
            if not 0 <= rank < self._sink.num_server_ranks:
                raise framing.FrameError(f"frame rank {rank} out of range")
            await self._enqueue(rank, (body, wire_nbytes), space, on_space)

    async def _read_frame(self, reader: asyncio.StreamReader):
        """Read one frame; ``None`` on a clean EOF at a frame boundary."""
        try:
            header = await reader.readexactly(framing.FRAME_HEADER_BYTES)
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise  # torn: some header bytes arrived, the rest never will
            return None
        kind, rank, body_len = framing.parse_header(header)  # enforces the frame cap
        body = await reader.readexactly(body_len) if body_len else b""
        return kind, rank, body, framing.FRAME_HEADER_BYTES + body_len

    async def _enqueue(self, rank: int, entry, space: asyncio.Event, on_space) -> None:
        """Hand one frame to the sink, parking this connection while the
        channel is full until ``on_space`` (registered by the refusal) fires."""
        while not self._sink.try_enqueue(rank, entry, on_space):
            if self._sink.closed or (self._stop_event is not None
                                     and self._stop_event.is_set()):
                # Tearing down: account the undeliverable frame as dropped
                # instead of waiting on a channel nobody drains.
                self._sink.record_rejected_frame()
                return
            await space.wait()
            space.clear()
