"""Shared-memory ring-buffer transport: one ordered channel per client.

PR 2's multi-process backend funnels every packed batch through a
``multiprocessing.Queue``: one pickle per buffer, a feeder thread per queue,
two pipe syscalls per batch, and — the documented limitation — a
cross-process writer *lock* that a client SIGKILLed exactly mid-``put`` can
leave held forever, wedging every other pusher to that rank.

This module replaces that channel with a fixed-capacity
**single-producer/single-consumer ring buffer** over
``multiprocessing.shared_memory``.  One ring exists per (ring slot,
server-rank) pair — SPSC by construction, because a slot is leased by
exactly one client at a time and a client streams to each rank from exactly
one process — and carries **everything** that client sends to that rank, in
send order, in the packed wire format of :mod:`repro.parallel.messages`
written **in place**: hello, time steps, finished.  As in the
paper's one-ZMQ-connection-per-rank design there is no side channel, so a
control message can neither overtake nor be overtaken by the data around it.

* Every ring slot holds one packed batch behind a 16-byte header: a
  **sequence word** doubling as the commit flag, and the batch length.
* The writer *reserves* the slot (odd write-begin marker), packs the batch
  straight into the slot's memoryview with
  :meth:`repro.parallel.messages.BatchPlan.write_into` (no intermediate
  ``bytes``), then commits: length, even commit word, and only then the
  shared ``writer_cursor``.  A SIGKILL at *any* point before the cursor
  store leaves the cursor unchanged, so the reader simply never observes
  the torn slot: **one batch is lost, nothing wedges**.  There are no
  cross-process locks on the push path at all — traffic counters included:
  they are writer-owned words of the ring header, summed at snapshot time.
* The stale write-begin marker left behind by a killed writer is detected
  by the restarted writer when it reuses the slot (the marker equals the
  odd sequence it is about to write), counted in the ring's
  ``torn_batches`` counter and surfaced through :class:`TransportStats`.
* The reader *borrows* a committed slot as a memoryview
  (:meth:`ShmRing.try_read_view`), decodes it in place with
  ``unpack_columns(view)`` — one block copy adopts every payload into the
  chunk's targets matrix — and only then advances the read cursor, so the
  slot is never recycled under a live view.
* Readers use a **busy-wait-then-park hybrid wakeup**: a short spin (the
  common case — data arrives within microseconds under load), then a parked
  wait on a per-rank ``multiprocessing.Semaphore`` gated by a
  ``reader_waiting`` flag so writers only pay the post when the reader is
  actually parked.  A semaphore rather than a ``Condition`` because a post
  is one atomic operation with no critical section: a writer SIGKILLed
  mid-notify cannot orphan anything.

**Slot-table multiplexing**: the ring grid is sized by
``max_concurrent_clients`` — the launcher's concurrency bound — not by the
ensemble size, so a paper-scale ensemble of hundreds of simulations needs
only as many rings as run concurrently.  The lease table belongs to the
server process alone: a ``client_id → slot`` dict and a free list behind a
``threading.Lock``.  The launcher calls :meth:`ShmRingTransport.lease_client`
before it forks a client, keeps the lease across the client's restarts and
calls :meth:`~ShmRingTransport.release_client` only after the client's last
process was joined.  A forked client finds its slot in the dict it inherited;
it takes no lock and writes no shared table, so a client killed anywhere —
inside :meth:`connect` included — leaves nothing held.  A recycled slot's
next holder appends behind whatever the dead holder left undrained (the
cursors live in the ring), and a begin marker the dead writer left behind
is counted as torn, as on a restart.

Cursors and slot headers are aligned 8-byte words written via ``memcpy``;
CPython performs each store as a single aligned copy, which is atomic on
every platform the fork-based launcher supports.  All counters are
monotonic, so a stale read is always conservative (the reader sees *fewer*
committed batches, the writer sees *less* free space).  The publish
protocol additionally relies on store *ordering*: exact on x86 (total
store order); on weakly-ordered CPUs a reader can transiently observe the
cursor ahead of the slot's commit word, which it handles by re-polling the
slot briefly (``_COMMIT_LAG_RETRIES``) and, failing that, skipping it as
torn — counted, never wedged; a buffer published with a stale interior is
rejected by the wire format's magic/length checks and counted as dropped.
True cross-process fences would need a C extension and are out of scope
for this reproduction.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import struct
import threading
import time
from itertools import groupby
from multiprocessing import shared_memory
from operator import attrgetter
from typing import Callable, Dict, List, Optional

from repro.parallel.messages import BatchPlan, Message, WireFormatError, plan_many
from repro.parallel.mp_transport import _SharedFlag
from repro.parallel.transport import (
    Connection,
    PackedDrainMixin,
    RouterClosed,
    Transport,
    TransportStats,
)
from repro.utils.constants import DEFAULT_RING_SLOT_BYTES, DEFAULT_RING_SLOTS
from repro.utils.logging import get_logger

logger = get_logger("parallel.shm_ring")

RING_MAGIC = 0x52425546  # "RBUF"
RING_VERSION = 2

#: Ring header layout (128 bytes, two cache lines).  All fields are 8-byte
#: aligned little-endian u64 words except the magic/version pair.
_HDR_MAGIC = 0  # u32 magic, u16 version, u16 pad
_HDR_NUM_SLOTS = 8
_HDR_SLOT_BYTES = 16
_HDR_WRITER_CURSOR = 24  # batches committed (writer-owned)
_HDR_READER_CURSOR = 32  # batches consumed (reader-owned)
_HDR_WRITER_TORN = 40  # stale write-begin markers found by a restarted writer
_HDR_READER_TORN = 48  # corrupt slot headers skipped by the reader
_HDR_HIGH_WATER = 56  # max ring depth observed by the writer
# Traffic counters of the slot's successive lessees (writer-owned: exactly one
# process writes a ring at a time, so a plain load+store needs no lock).
_HDR_WRITER_MESSAGES = 64  # messages committed
_HDR_WRITER_NBYTES = 72  # packed bytes committed
_HDR_WRITER_DROPPED = 80  # messages a push gave up on (full ring, closed, oversized)
RING_HEADER_BYTES = 128

#: Slot header: sequence/commit word, then payload length.
_SLOT_SEQ = 0
_SLOT_LENGTH = 8
SLOT_HEADER_BYTES = 16

_U64 = struct.Struct("<Q")
_MAGIC_WORD = struct.Struct("<IHH")

#: Busy-wait budget before parking on the condition / sleeping (seconds).
DEFAULT_SPIN_WAIT = 2e-4

#: Spinning is only productive when the writer can run *while* the reader
#: spins.  On a single-CPU box the spin merely steals the writer's
#: timeslice (the reader burns the core checking for data the writer is not
#: being scheduled to produce), so the reader parks immediately instead.
_MULTI_CORE = (os.cpu_count() or 1) > 1

#: Single-core park interval.  Parking on the wakeup semaphore is wrong on
#: one CPU: every commit would wake (and usually preempt) the reader, which
#: drains the single fresh batch, parks again, and forces two context
#: switches per batch.  A short timed nap instead lets the writer run
#: uninterrupted until the ring has accumulated a full sweep's worth of
#: batches, which the reader then drains in one pass.
_SINGLE_CORE_PARK = 5e-4
#: Writer back-off while the ring is full (the reader is busy; sub-ms poll).
#: Kept short on single-core boxes: there the reader naps on a timer while
#: the ring is *empty*, and a long writer back-off overlapping that nap is
#: dead time for both sides (a retry probe costs ~1 µs, so waking often is
#: cheap).
_FULL_RING_BACKOFF = 5e-4 if (os.cpu_count() or 1) > 1 else 1e-4

#: Upper bound on one transport's ring segment.  The slot table allocates
#: ranks x max_concurrent_clients rings upfront; with the grid scaling by
#: concurrency rather than ensemble size this guard only trips on
#: pathological geometry, and the fix is named in the message.
MAX_SEGMENT_BYTES = 1 << 30

#: How many times the reader re-polls a slot whose commit word lags the
#: writer cursor before declaring it torn.  On x86 (total store order) the
#: lag cannot happen; on weakly-ordered CPUs the writer's stores become
#: visible within nanoseconds, so a brief re-read closes the window.
_COMMIT_LAG_RETRIES = 128


class ShmRing:
    """Fixed-capacity SPSC byte-buffer ring over a shared-memory view.

    The ring does not own its memory: it operates on a ``memoryview`` slice
    of a :class:`multiprocessing.shared_memory.SharedMemory` block (see
    :class:`ShmRingTransport`, which packs one ring per (slot, rank) pair
    into a single segment).  All mutable state lives inside the view, so a
    forked child and its parent observe the same cursors.

    Two write APIs exist: :meth:`try_write`/:meth:`write` copy a prepared
    buffer into the slot, and :meth:`try_reserve`/:meth:`reserve` +
    :meth:`commit_write` hand the slot's memoryview to the caller so the
    payload can be *produced* in place (the zero-copy pack path).  Reads are
    symmetric: :meth:`try_read` copies the batch out, while
    :meth:`try_read_view` + :meth:`finish_read` lend the committed slot to
    the caller and recycle it only after the read is finished.
    """

    def __init__(self, buf: memoryview, num_slots: int, slot_bytes: int,
        create: bool = False) -> None:
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        if slot_bytes <= 0 or slot_bytes % 8:
            raise ValueError("slot_bytes must be a positive multiple of 8")
        expected = self.layout_bytes(num_slots, slot_bytes)
        if len(buf) < expected:
            raise ValueError(f"ring view too small: {len(buf)} < {expected} bytes")
        self._buf = buf
        self.num_slots = int(num_slots)
        self.slot_bytes = int(slot_bytes)
        self._stride = SLOT_HEADER_BYTES + self.slot_bytes
        self._reserved: Optional[tuple] = None  # (writer, slot offset, reader)
        self._pending_read = -1  # reader cursor of the borrowed slot
        if create:
            buf[:expected] = bytes(expected)
            _MAGIC_WORD.pack_into(buf, _HDR_MAGIC, RING_MAGIC, RING_VERSION, 0)
            _U64.pack_into(buf, _HDR_NUM_SLOTS, self.num_slots)
            _U64.pack_into(buf, _HDR_SLOT_BYTES, self.slot_bytes)
        else:
            magic, version, _pad = _MAGIC_WORD.unpack_from(buf, _HDR_MAGIC)
            if magic != RING_MAGIC or version != RING_VERSION:
                raise ValueError("view does not hold an initialised ShmRing header")
            if (self._load(_HDR_NUM_SLOTS) != self.num_slots
                    or self._load(_HDR_SLOT_BYTES) != self.slot_bytes):
                raise ValueError("ring geometry does not match the header")

    @staticmethod
    def layout_bytes(num_slots: int, slot_bytes: int) -> int:
        """Shared-memory footprint of one ring with this geometry."""
        return RING_HEADER_BYTES + num_slots * (SLOT_HEADER_BYTES + slot_bytes)

    # ------------------------------------------------------------- word access
    def _load(self, offset: int) -> int:
        return _U64.unpack_from(self._buf, offset)[0]

    def _store(self, offset: int, value: int) -> None:
        _U64.pack_into(self._buf, offset, value)

    def _slot_offset(self, cursor: int) -> int:
        return RING_HEADER_BYTES + (cursor % self.num_slots) * self._stride

    # ----------------------------------------------------------------- writer
    def try_reserve(self, length: int) -> Optional[memoryview]:
        """Claim the next slot for an in-place write of ``length`` bytes.

        Stores the odd write-begin marker and returns a writable memoryview
        of the slot's payload region; the caller fills it and publishes with
        :meth:`commit_write` (or backs out with :meth:`abort_write`).
        Returns ``None`` when the ring is full; never blocks.
        """
        if length > self.slot_bytes:
            raise ValueError(
                f"batch of {length} bytes exceeds the {self.slot_bytes}-byte ring slot"
            )
        # Word accesses are inlined (no _load/_store calls): this runs once
        # per published batch and the call overhead is measurable there.
        buf = self._buf
        load, store = _U64.unpack_from, _U64.pack_into
        writer = load(buf, _HDR_WRITER_CURSOR)[0]
        reader = load(buf, _HDR_READER_CURSOR)[0]
        if writer - reader >= self.num_slots:
            return None
        offset = self._slot_offset(writer)
        begin_marker = 2 * writer + 1
        if load(buf, offset + _SLOT_SEQ)[0] == begin_marker:
            # A previous incarnation of this writer died mid-write in this
            # very slot (its cursor was never advanced): count the torn batch
            # the restarted writer is about to overwrite.
            store(buf, _HDR_WRITER_TORN, load(buf, _HDR_WRITER_TORN)[0] + 1)
        store(buf, offset + _SLOT_SEQ, begin_marker)
        self._reserved = (writer, offset, reader)
        payload_at = offset + SLOT_HEADER_BYTES
        return buf[payload_at : payload_at + length]

    def commit_write(self, length: int, messages: int = 1) -> None:
        """Publish the reserved slot: length, commit word, writer cursor.

        The published batch of ``messages`` messages is then counted in the
        writer-owned header words — plain load+store, no lock: a writer
        killed in between leaves a counter one batch behind, never a held lock.
        """
        writer, offset, reader = self._reserved
        self._reserved = None
        buf = self._buf
        load, store = _U64.unpack_from, _U64.pack_into
        store(buf, offset + _SLOT_LENGTH, length)
        store(buf, offset + _SLOT_SEQ, 2 * writer + 2)  # commit flag
        store(buf, _HDR_WRITER_CURSOR, writer + 1)
        depth = writer + 1 - reader
        if depth > load(buf, _HDR_HIGH_WATER)[0]:
            store(buf, _HDR_HIGH_WATER, depth)
        store(buf, _HDR_WRITER_MESSAGES, load(buf, _HDR_WRITER_MESSAGES)[0] + messages)
        store(buf, _HDR_WRITER_NBYTES, load(buf, _HDR_WRITER_NBYTES)[0] + length)

    def abort_write(self) -> None:
        """Back out of a reservation (clears the write-begin marker)."""
        if self._reserved is not None:
            _writer, offset, _reader = self._reserved
            self._reserved = None
            self._store(offset + _SLOT_SEQ, 0)

    def record_dropped(self, count: int) -> None:
        """Count messages the writer gave up on (full ring, closed, oversized)."""
        self._store(_HDR_WRITER_DROPPED, self._load(_HDR_WRITER_DROPPED) + count)

    def reserve(
        self,
        length: int,
        timeout: Optional[float] = None,
        should_abort: Optional[Callable[[], bool]] = None,
    ) -> Optional[memoryview]:
        """Blocking :meth:`try_reserve`: spin briefly, then sleep-poll for room.

        Returns ``None`` on timeout or when ``should_abort`` fires; the
        caller decides between ``queue.Full`` and :class:`RouterClosed`
        semantics.  A full ring means the reader is saturated, so the writer
        back-off is a plain sub-millisecond sleep — there is nothing to wake
        it earlier.
        """
        view = self.try_reserve(length)
        if view is not None:
            return view
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        # A full ring frees only when the reader runs; spinning for it is
        # pointless on a single-CPU box (see _MULTI_CORE).
        spin_until = start + DEFAULT_SPIN_WAIT if _MULTI_CORE else start
        while True:
            if should_abort is not None and should_abort():
                return None
            if time.monotonic() >= spin_until:
                break
            view = self.try_reserve(length)
            if view is not None:
                return view
        while True:
            view = self.try_reserve(length)
            if view is not None:
                return view
            if should_abort is not None and should_abort():
                return None
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                return None
            pause = _FULL_RING_BACKOFF
            if deadline is not None:
                pause = min(pause, max(deadline - now, 0.0))
            time.sleep(pause)

    def try_write(self, data: bytes) -> bool:
        """Copy one prepared batch in; False when the ring is full."""
        view = self.try_reserve(len(data))
        if view is None:
            return False
        view[:] = data
        view.release()
        self.commit_write(len(data))
        return True

    def write(
        self,
        data: bytes,
        timeout: Optional[float] = None,
        should_abort: Optional[Callable[[], bool]] = None,
    ) -> bool:
        """Blocking :meth:`try_write` over :meth:`reserve`."""
        view = self.reserve(len(data), timeout=timeout, should_abort=should_abort)
        if view is None:
            return False
        view[:] = data
        view.release()
        self.commit_write(len(data))
        return True

    # ----------------------------------------------------------------- reader
    def try_read_view(self) -> Optional[memoryview]:
        """Borrow the next committed batch in place; ``None`` when empty.

        The returned memoryview aliases the ring slot: it stays valid only
        until :meth:`finish_read` recycles the slot, so the caller must
        consume (or copy out of) the view *before* finishing the read —
        and must release the view so the shared segment can be closed.

        A published slot whose commit word or length does not match cannot
        happen under the SPSC protocol on a TSO machine; on weakly-ordered
        CPUs it can transiently lag the cursor, so the slot is re-polled
        briefly and only then skipped — counted in ``torn_batches`` instead
        of wedging the reader on garbage.
        """
        buf = self._buf
        load = _U64.unpack_from
        while True:
            reader = load(buf, _HDR_READER_CURSOR)[0]
            if load(buf, _HDR_WRITER_CURSOR)[0] <= reader:
                return None
            offset = self._slot_offset(reader)
            committed_seq = 2 * reader + 2
            for _ in range(_COMMIT_LAG_RETRIES):
                length = load(buf, offset + _SLOT_LENGTH)[0]
                committed = load(buf, offset + _SLOT_SEQ)[0] == committed_seq
                if committed and length <= self.slot_bytes:
                    break
            if committed and length <= self.slot_bytes:
                payload_at = offset + SLOT_HEADER_BYTES
                self._pending_read = reader
                return buf[payload_at : payload_at + length]
            logger.warning("skipping corrupt ring slot at cursor %d", reader)
            self._store(_HDR_READER_TORN, self._load(_HDR_READER_TORN) + 1)
            self._store(_HDR_READER_CURSOR, reader + 1)

    def finish_read(self) -> None:
        """Recycle the slot borrowed by :meth:`try_read_view`."""
        self._store(_HDR_READER_CURSOR, self._pending_read + 1)

    def try_read(self) -> Optional[bytes]:
        """Pop the next committed batch as an owned copy; ``None`` when empty."""
        view = self.try_read_view()
        if view is None:
            return None
        data = bytes(view)
        view.release()
        self.finish_read()
        return data

    # ------------------------------------------------------------------ state
    @property
    def depth(self) -> int:
        """Committed batches not yet consumed."""
        return self._load(_HDR_WRITER_CURSOR) - self._load(_HDR_READER_CURSOR)

    @property
    def high_water(self) -> int:
        """Deepest the ring has ever been (in batches)."""
        return self._load(_HDR_HIGH_WATER)

    @property
    def torn_batches(self) -> int:
        """Batches lost to a writer killed mid-write (plus defensive skips)."""
        return self._load(_HDR_WRITER_TORN) + self._load(_HDR_READER_TORN)

    @property
    def traffic(self) -> tuple:
        """Writer-side ``(messages, bytes, dropped messages)`` counters."""
        return (self._load(_HDR_WRITER_MESSAGES), self._load(_HDR_WRITER_NBYTES),
                self._load(_HDR_WRITER_DROPPED))

    def release(self) -> None:
        """Drop the memoryview so the owning shared block can be closed."""
        self._buf.release()


_by_client = attrgetter("client_id")


class ShmRingTransport(PackedDrainMixin, Transport):
    """Multi-process transport: one shared-memory ring per client and rank.

    One :class:`ShmRing` per (ring slot, server-rank) pair carries every
    message its lessee sends to that rank — hello, time steps, finished —
    as packed batches in send order; there is no other channel.
    All rings live in **one** shared-memory segment created by the server
    process and inherited by the forked clients, so there is nothing to
    name, attach or clean up per client.

    Parameters
    ----------
    num_server_ranks:
        Number of server ranks (one aggregator thread each).
    max_concurrent_clients:
        Size of the ring-slot table: how many clients can hold a ring lease
        simultaneously.  The launcher's pool has the same width, so a lease
        never waits; the ensemble size is irrelevant.
    ring_slots / ring_slot_bytes:
        Geometry of every ring: ``ring_slots`` batches of at most
        ``ring_slot_bytes`` packed bytes.  A batch that outgrows a slot is
        split in half recursively; a single message that cannot fit raises
        :class:`WireFormatError` naming the knob to raise.
    """

    def __init__(
        self,
        num_server_ranks: int,
        max_concurrent_clients: int = 8,
        ring_slots: int = DEFAULT_RING_SLOTS,
        ring_slot_bytes: int = DEFAULT_RING_SLOT_BYTES,
        spin_wait: float = DEFAULT_SPIN_WAIT,
    ) -> None:
        if num_server_ranks <= 0:
            raise ValueError("num_server_ranks must be positive")
        if max_concurrent_clients <= 0:
            raise ValueError("max_concurrent_clients must be positive")
        if ring_slots <= 0:
            raise ValueError("ring_slots must be positive")
        if ring_slot_bytes <= 0:
            raise ValueError("ring_slot_bytes must be positive")
        self.num_server_ranks = int(num_server_ranks)
        self.max_concurrent_clients = int(max_concurrent_clients)
        self.ring_slots = int(ring_slots)
        self.ring_slot_bytes = int(-(-ring_slot_bytes // 8) * 8)  # 8-byte aligned slots
        self.spin_wait = float(spin_wait)

        ring_bytes = ShmRing.layout_bytes(self.ring_slots, self.ring_slot_bytes)
        total = self.num_server_ranks * self.max_concurrent_clients * ring_bytes
        if total > MAX_SEGMENT_BYTES:
            raise ValueError(
                f"shm ring grid needs {total / 2**20:.0f} MiB "
                f"({num_server_ranks} ranks x {max_concurrent_clients} leases x "
                f"{ring_bytes / 2**10:.0f} KiB/ring), above the "
                f"{MAX_SEGMENT_BYTES // 2**20} MiB guard; shrink "
                "ring_slots/ring_slot_bytes or max_concurrent_clients "
                "(the slot table scales with concurrency, not ensemble size)"
            )
        try:
            self._shm = shared_memory.SharedMemory(create=True, size=total)
        except OSError as exc:
            raise OSError(
                f"could not allocate the {total / 2**20:.0f} MiB shm ring segment "
                "(check /dev/shm capacity, or shrink ring_slots/ring_slot_bytes)"
            ) from exc
        self._creator_pid = os.getpid()
        #: Last snapshot, frozen by :meth:`shutdown` (the ring counters go
        #: with the segment); ``None`` while the segment is mapped.
        self._final_stats: Optional[TransportStats] = None
        self._rings: List[List[ShmRing]] = []
        for rank in range(self.num_server_ranks):
            row = []
            for slot in range(self.max_concurrent_clients):
                begin = (rank * self.max_concurrent_clients + slot) * ring_bytes
                view = self._shm.buf[begin : begin + ring_bytes]
                row.append(ShmRing(view, self.ring_slots, self.ring_slot_bytes, create=True))
            self._rings.append(row)
        self._init_leftovers(self.num_server_ranks)
        self._closed = _SharedFlag()
        # Ring-slot lease table, server-process state: a forked client reads
        # the copy it inherited and never writes it, so a thread lock (never
        # taken in a client process) is all it needs.
        self._lease_lock = threading.Lock()
        self._slots: Dict[int, int] = {}
        self._free: List[int] = list(reversed(range(self.max_concurrent_clients)))
        # Reader wakeup: one semaphore per rank, posted by writers only when
        # the rank's reader advertises that it is parked.  A semaphore (one
        # atomic post, no critical section) is kill-safe where a Condition is
        # not: a client SIGKILLed inside a Condition.notify would orphan the
        # condition's lock and wedge the reader — the very failure mode the
        # rings exist to remove.
        self._wakeups = [mp.Semaphore(0) for _ in range(self.num_server_ranks)]
        self._reader_waiting = [mp.Value("b", 0, lock=False)
                                for _ in range(self.num_server_ranks)]
        # Server-process counters: drops found while decoding and launcher
        # kills are recorded by server threads only, so a thread lock (never
        # taken by a client process) guards them.  Everything a client counts
        # lives in its ring's header instead.
        self._server_lock = threading.Lock()
        self._reader_dropped = 0
        self._unresponsive_kills = 0

    # ------------------------------------------------------------ slot leases
    def lease_client(self, client_id: int) -> int:
        """Lease a ring slot to ``client_id`` and return it (idempotent).

        Server process only: the launcher calls it before forking the
        client, so the child inherits the lease with the table.  A forked
        process that finds no lease for its client raises at once — leasing
        there would write a table no one else reads.  A full table raises
        too: the launcher runs at most ``max_concurrent_clients`` clients,
        the bound that sized the table, so a lease never has to wait.
        """
        client_id = int(client_id)
        if os.getpid() != self._creator_pid:
            raise RuntimeError(
                f"client {client_id} has no ring-slot lease in this forked "
                f"process: the server process must call lease_client({client_id}) "
                "before it starts the client"
            )
        with self._lease_lock:
            slot = self._slots.get(client_id)
            if slot is None:
                if not self._free:
                    raise RuntimeError(
                        f"no free ring slot for client {client_id}: all "
                        f"max_concurrent_clients={self.max_concurrent_clients} slots "
                        f"are leased (to clients {sorted(self._slots)}); the launcher "
                        "must run no more clients at once than the table holds"
                    )
                slot = self._slots[client_id] = self._free.pop()
            return slot

    def release_client(self, client_id: int) -> None:
        """Return ``client_id``'s slot to the free list (its processes are gone).

        Undrained batches stay readable — every message carries its client
        id — and the slot's next holder appends behind them.
        """
        with self._lease_lock:
            slot = self._slots.pop(int(client_id), None)
            if slot is not None:
                self._free.append(slot)

    def connect(self, client_id: int, batch_size: int = 1) -> Connection:
        """Connect ``client_id`` through its leased ring slot (see :meth:`lease_client`)."""
        connection = super().connect(client_id, batch_size=batch_size)
        self._slot_for(connection.client_id)
        return connection

    def _slot_for(self, client_id: int) -> int:
        """``client_id``'s slot: a lock-free read of the inherited table, or
        :meth:`lease_client` when it has none."""
        slot = self._slots.get(client_id)
        return self.lease_client(client_id) if slot is None else slot

    # ----------------------------------------------------------------- client
    def push_many(self, rank: int, messages: List[Message], timeout: float | None = None) -> None:
        """Pack ``messages`` into their client's leased ring for ``rank``.

        A client's batch names one client — a single in-place packed ring
        write, whatever message types it mixes.  A batch naming several
        clients is written as consecutive same-client runs, each to its own
        ring (order holds per client, which is all any backend promises).
        A failed push drops everything it had not committed yet.
        """
        self._check_rank(rank)
        rings = self._rings[rank]
        committed = 0
        try:
            for client_id, run in groupby(messages, key=_by_client):
                ring = rings[self._slot_for(client_id)]
                for chunk, plan in self._ring_chunks(ring, list(run)):
                    self._write_chunk(ring, plan, len(chunk), timeout)
                    committed += len(chunk)
                    self._notify(rank)
        except (queue.Full, RouterClosed, WireFormatError):
            ring.record_dropped(len(messages) - committed)
            raise

    def _ring_chunks(self, ring: ShmRing,
        run: List[Message]) -> List[tuple[List[Message], BatchPlan]]:
        """Plan ``run`` into slot-sized batches, splitting in half as needed.

        Planning is size-only (no bytes are produced): the actual packing
        happens straight into the reserved ring slot.
        """
        plan = plan_many(run)
        if plan.nbytes <= ring.slot_bytes:
            return [(run, plan)]
        if len(run) == 1:
            raise WireFormatError(
                f"one packed message of {plan.nbytes} bytes exceeds the "
                f"{ring.slot_bytes}-byte ring slot; raise "
                "TransportConfig.shm.ring_slot_bytes"
            )
        middle = len(run) // 2
        return self._ring_chunks(ring, run[:middle]) + self._ring_chunks(ring, run[middle:])

    def _write_chunk(self, ring: ShmRing, plan: BatchPlan, messages: int,
                     timeout: float | None) -> None:
        """Pack one planned batch straight into the next free slot of ``ring``."""
        closed = self._closed.is_set
        view = None if closed() else ring.reserve(plan.nbytes, timeout=timeout,
                                                  should_abort=closed)
        if view is None:
            if closed():
                raise RouterClosed("transport is closed")
            raise queue.Full
        try:
            plan.write_into(view, 0)
        except BaseException:
            ring.abort_write()
            raise
        finally:
            view.release()
        ring.commit_write(plan.nbytes, messages)

    def _notify(self, rank: int) -> None:
        """Wake the rank's reader, but only when it is actually parked.

        One semaphore post, taken without any lock, so a writer killed at
        any point here leaves nothing orphaned.  A post that races a reader
        that stopped waiting merely causes one spurious wakeup later.
        """
        if self._reader_waiting[rank].value:
            self._wakeups[rank].release()

    def _record_dropped(self, count: int) -> None:
        if count:
            with self._server_lock:
                self._reader_dropped += count

    def record_unresponsive_kill(self) -> None:
        """Count one launcher-side kill of an unresponsive client process."""
        with self._server_lock:
            self._unresponsive_kills += 1

    # ----------------------------------------------------------------- server
    def poll_batches(self, rank: int, max_messages: int = 64,
        timeout: float | None = 0.05) -> list:
        """Ring batches decode in place: a step batch straight into one
        :class:`ColumnBatch` chunk (one structured header parse plus the
        payload-block adoption copy, no per-message objects), control
        messages as objects, each client's stream in its send order.
        """
        if max_messages <= 0:
            raise ValueError("max_messages must be positive")
        self._check_rank(rank)
        items: list = []
        count = self._take_leftover(rank, items, max_messages)
        self._drain_rings(rank, items, count, max_messages)
        if items or timeout is None:
            return items
        deadline = time.monotonic() + timeout
        wakeup = self._wakeups[rank]
        waiting = self._reader_waiting[rank]
        while True:
            now = time.monotonic()
            if now >= deadline:
                return items
            parked = True
            if _MULTI_CORE:
                spin_until = min(deadline, now + self.spin_wait)
                while time.monotonic() < spin_until:  # busy-wait: data is near
                    if self._ready(rank):
                        parked = False
                        break
            if parked:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return items
                if not _MULTI_CORE:
                    # Timed nap (no semaphore, no writer-side posts): the
                    # writer keeps its timeslice and batches accumulate.
                    time.sleep(min(remaining, _SINGLE_CORE_PARK))
                else:
                    waiting.value = 1
                    try:
                        while wakeup.acquire(False):
                            pass  # drop stale posts before parking
                        if not self._ready(rank):
                            # Bounded: the waiting-flag/cursor handshake has no
                            # fence, so a post can be missed; cap its cost.
                            wakeup.acquire(True, min(remaining, 0.05))
                    finally:
                        waiting.value = 0
            self._drain_rings(rank, items, 0, max_messages)
            if items:
                return items

    def _ready(self, rank: int) -> bool:
        """Anything deliverable right now? (cheap, lock-free probe)"""
        return any(ring.depth for ring in self._rings[rank])

    def _drain_rings(self, rank: int, out: list, count: int,
                     max_messages: int) -> int:
        """One non-blocking round-robin sweep over the rank's rings.

        ``count`` is the running message tally of ``out`` (columnar chunks
        count their sample length); the updated tally is returned.
        """
        rings = self._rings[rank]
        progressed = True
        while progressed and count < max_messages:
            progressed = False
            for ring in rings:
                if count >= max_messages:
                    return count
                view = ring.try_read_view()  # None doubles as the empty probe
                if view is None:
                    continue
                progressed = True
                try:
                    # In-place decode of the borrowed slot; the one
                    # payload-block copy transfers ownership to the chunk, so
                    # the slot can be recycled immediately.
                    batch = self._decode_packed(view, rank)
                finally:
                    view.release()
                    ring.finish_read()
                count = self._absorb(rank, out, batch, max_messages, count)
        return count

    def pending(self, rank: int) -> int:
        """Leftovers plus ring batches (a packed batch counts once, leftover
        columnar chunks by their sample length)."""
        self._check_rank(rank)
        return self._leftover_count(rank) + sum(ring.depth for ring in self._rings[rank])

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._closed.set()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def shutdown(self) -> None:
        """Close, wake parked readers, freeze the stats, free the segment.

        Only the creating process unlinks the shared segment; forked clients
        merely drop their inherited mapping when they exit.
        """
        self.close()
        for wakeup in self._wakeups:
            wakeup.release()  # at most one parked reader per rank
        if self._final_stats is not None:
            return
        self._final_stats = self.stats
        for leftover in self._leftover:
            leftover.clear()
        for row in self._rings:
            for ring in row:
                ring.release()
        self._rings = []
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - an undropped external view
            logger.warning("shared ring segment still has exported views", exc_info=True)
            return
        if os.getpid() == self._creator_pid:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    @property
    def stats(self) -> TransportStats:
        """Snapshot: every ring's writer-owned counters plus the server's own."""
        if self._final_stats is not None:
            return self._final_stats
        with self._server_lock:
            snapshot = TransportStats(dropped_messages=self._reader_dropped,
                                      unresponsive_kills=self._unresponsive_kills)
        for rank, row in enumerate(self._rings):
            routed = deepest = 0
            for ring in row:
                messages, nbytes, dropped = ring.traffic
                routed += messages
                snapshot.bytes_routed += nbytes
                snapshot.dropped_messages += dropped
                snapshot.torn_batches += ring.torn_batches
                deepest = max(deepest, ring.high_water)
            snapshot.messages_routed += routed
            if routed:
                snapshot.per_rank_messages[rank] = routed
            if deepest:
                snapshot.ring_depth_high_water[rank] = deepest
        return snapshot
