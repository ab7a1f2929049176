"""Data-aggregator thread of a server rank.

The aggregator drains the transport channel of its rank — time steps arrive
as :class:`ColumnBatch` chunks, never as per-message objects — discards
duplicates caused by client restarts, feeds the rank-local training buffer
and signals the buffer when every expected client has finished.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional, Set

import numpy as np

from repro.buffers.base import TrainingBuffer
from repro.buffers.columns import ColumnBatch
from repro.parallel.messages import ClientFinished, ClientHello, Message
from repro.parallel.transport import Transport
from repro.server.fault import HeartbeatMonitor, MessageLog
from repro.utils.exceptions import BufferClosedError
from repro.utils.logging import get_logger

logger = get_logger("server.aggregator")

Array = np.ndarray

#: Seconds one poll of the transport waits for data.
POLL_TIMEOUT = 0.02
#: Most transport messages drained per loop iteration; the compatible chunks
#: of one drain go into the buffer with a single ``put_many``.
MAX_DRAIN = 64
#: Bound on each wait for buffer space, so a full buffer never keeps the
#: thread from noticing a stop request.
PUT_RETRY_TIMEOUT = 0.2


@dataclass
class AggregatorStats:
    """Counters maintained by one aggregator thread."""

    samples_received: int = 0
    duplicates_discarded: int = 0
    #: Samples drained from the transport but abandoned because the
    #: aggregator was stopped while waiting for buffer space.
    samples_dropped: int = 0
    clients_finished: Set[int] = field(default_factory=set)


class DataAggregator:
    """Receive client data for one server rank and fill its training buffer.

    Parameters
    ----------
    rank:
        Server rank this aggregator serves.
    router:
        Transport router shared with the clients.
    buffer:
        The rank-local training buffer (FIFO/FIRO/Reservoir).
    expected_clients:
        Total number of ensemble members the study will run; the aggregator
        signals end-of-reception to the buffer once a ``ClientFinished`` was
        seen from each of them.
    heartbeat_monitor:
        Optional liveness tracker shared with the launcher's watchdog: every
        hello and every chunk stamps its clients' arrival on the server's clock.
    """

    def __init__(
        self,
        rank: int,
        router: Transport,
        buffer: TrainingBuffer,
        expected_clients: int,
        heartbeat_monitor: Optional[HeartbeatMonitor] = None,
        message_log: Optional[MessageLog] = None,
    ) -> None:
        self.rank = int(rank)
        self.router = router
        self.buffer = buffer
        self.expected_clients = int(expected_clients)
        self.heartbeat_monitor = heartbeat_monitor
        self.message_log = message_log or MessageLog()
        self.stats = AggregatorStats()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the aggregator thread."""
        if self._thread is not None:
            raise RuntimeError("aggregator already started")
        self._thread = threading.Thread(
            target=self._run, name=f"aggregator-rank-{self.rank}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Request the aggregator to stop and wait for the thread to exit."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def reception_complete(self) -> bool:
        """True once every expected client announced completion."""
        return len(self.stats.clients_finished) >= self.expected_clients

    # ------------------------------------------------------------------ logic
    def _run(self) -> None:
        """Drain the rank's channel; a closed transport closes the buffer,
        which stops the rank's trainer."""
        try:
            while not self._stop.is_set():
                if self.router.closed:
                    self.buffer.close()
                    return
                items = self.router.poll_batches(
                    self.rank, max_messages=MAX_DRAIN, timeout=POLL_TIMEOUT
                )
                if items:
                    self._handle_items(items)
                elif self.reception_complete:
                    self.buffer.signal_reception_over()  # also with no client expected
                    return
        except BufferClosedError:
            pass  # the server closed the buffer: training is over
        except BaseException as exc:  # noqa: BLE001 - thread boundary
            self.router.fail(exc)
            self.buffer.close()

    def _handle_items(self, items: List[object]) -> None:
        """Process one drain: :class:`ColumnBatch` chunks and control messages,
        in arrival order.

        Consecutive chunks with matching column shapes are merged into one
        :meth:`_ingest_columns` call (one dedup pass, one ``put_many``).
        Pending chunks are ingested before a ``ClientFinished`` so that the
        message which may flip the buffer into drain mode always observes
        every sample received before it; a hello never touches the buffer
        and is dispatched without fragmenting the bulk insert.
        """
        chunks: List[ColumnBatch] = []

        def ingest_pending() -> None:
            if chunks:
                self._ingest_columns(ColumnBatch.concat(chunks))
                chunks.clear()

        for item in items:
            if isinstance(item, ColumnBatch):
                if chunks and not chunks[-1].compatible_with(item):
                    ingest_pending()
                chunks.append(item)
            else:
                if isinstance(item, ClientFinished):
                    ingest_pending()
                self._handle_control(item)
        ingest_pending()

    def _ingest_columns(self, batch: ColumnBatch) -> None:
        """Dedup, liveness-track and buffer one columnar chunk, vectorised.

        The per-sample bookkeeping is column arithmetic: the distinct clients
        are one ``np.unique`` over the id vector, liveness is one ``touch`` per
        distinct client, and deduplication is one
        :meth:`MessageLog.register_many` call, handed the same distinct
        clients, whose keep-mask (if any) compresses the batch before it
        enters the buffer.
        """
        if not len(batch):
            return
        ids = batch.source_ids
        clients = np.unique(ids).tolist()
        if self.heartbeat_monitor is not None:
            for cid in clients:
                self.heartbeat_monitor.touch(cid)
        keep = self.message_log.register_many(ids, batch.time_steps, clients)
        if keep is not None:
            kept = int(keep.sum())
            self.stats.duplicates_discarded += len(batch) - kept
            if not kept:
                return
            batch = batch.compress(keep)
        self._flush(batch)

    def _flush(self, batch: ColumnBatch) -> None:
        """Insert ``batch`` into the buffer, staying responsive to stop().

        Each wait for buffer space is bounded by :data:`PUT_RETRY_TIMEOUT`; when a
        stop is requested while the buffer is full, the remaining samples are
        dropped (counted in ``stats.samples_dropped``) instead of blocking
        shutdown forever.
        """
        offset = 0
        total = len(batch)
        while offset < total:
            if self._stop.is_set():
                self.stats.samples_dropped += total - offset
                return
            try:
                inserted = self.buffer.put_many(
                    batch[offset:], timeout=PUT_RETRY_TIMEOUT
                )
            except BufferClosedError:
                # Abort path: the remainder can never be inserted — account
                # for it before the error unwinds the receive loop.
                self.stats.samples_dropped += total - offset
                raise
            self.stats.samples_received += inserted
            offset += inserted

    def _handle_control(self, message: Message) -> None:
        if isinstance(message, ClientHello):
            if self.heartbeat_monitor is not None:
                self.heartbeat_monitor.touch(message.client_id)
        elif isinstance(message, ClientFinished):
            self.stats.clients_finished.add(message.client_id)
            if self.heartbeat_monitor is not None:
                self.heartbeat_monitor.mark_finished(message.client_id)
            if self.reception_complete:
                self.buffer.signal_reception_over()
        else:  # pragma: no cover - defensive
            logger.warning("rank %d aggregator ignoring unknown message %r", self.rank, message)
