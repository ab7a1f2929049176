"""Fault-injection tests for the shared-memory ring-buffer transport.

The ring closes the documented ``mp.Queue`` limitation: a client SIGKILLed
mid-write must cost at most the one batch it was writing — never a wedged
reader or a stalled lock.  These tests pin that contract, the slow-reader
drop accounting, wraparound integrity, that a client's control messages
ride its ring in send order (one ordered channel per client, no side queue),
and that ring-slot leases are taken and returned by the server process alone
(a forked client only reads the table it inherited).
"""

import multiprocessing.synchronize
import queue
import random
import sys
import threading
import time

import numpy as np
import pytest

from fault_clients import HangingClient
from repro.buffers import FIFOBuffer
from repro.buffers.columns import ColumnBatch
from repro.client.api import ClientAPI
from repro.client.simulation_client import SimulationClient
from repro.launcher.launcher import ClientSpec, Launcher, LauncherConfig
from repro.parallel.messages import (
    ClientFinished,
    ClientHello,
    StepBlock,
    TimeStepMessage,
    WireFormatError,
)
from repro.parallel.mp_transport import MultiprocessTransport
from repro.parallel.shm_ring import (
    _HDR_WRITER_CURSOR,
    RING_HEADER_BYTES,
    ShmRing,
    ShmRingTransport,
)
from repro.parallel.transport import MessageRouter
from repro.server.aggregator import DataAggregator
from repro.server.fault import HeartbeatMonitor, MessageLog

#: Test processes are forked, like the launcher's clients.
FORK = multiprocessing.get_context("fork")

DEADLINE = 30.0  # generous cap: every blocking wait in this module fails by then
#: How long a push waits on a full rank channel before the batch is dropped.
QUEUE_DROP_TIMEOUT = 0.1

NUM_STEPS = 40
FIELD = np.arange(8, dtype=np.float32)


def wait_until(predicate, timeout=DEADLINE, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def slot_of(transport, client_id):
    """The ring slot ``client_id`` currently leases, or ``None``."""
    return transport._slots.get(client_id)


def stream_steps(transport, client_id, num_steps, step_delay=0.0, batch_size=1):
    """Run the three-call client contract, streaming ``num_steps`` messages."""
    api = ClientAPI(transport, client_id, send_batch_size=batch_size)
    api.init_communication(parameters=(1.0, 2.0), num_time_steps=num_steps, field_shape=FIELD.shape)
    for step in range(num_steps):
        api.send(step, step * 0.1, (1.0, 2.0), FIELD)
        if step_delay:
            time.sleep(step_delay)
    api.finalize_communication()


@pytest.fixture
def transport():
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=2,
        ring_slots=32, ring_slot_bytes=8192)
    yield transport
    transport.shutdown()


def make_ring(num_slots=4, slot_bytes=64):
    """A standalone ring over plain process-local memory (logic tests)."""
    buf = memoryview(bytearray(ShmRing.layout_bytes(num_slots, slot_bytes)))
    return ShmRing(buf, num_slots, slot_bytes, create=True)


# ------------------------------------------------------------- wraparound
def test_wraparound_at_slot_boundary_round_trips_byte_for_byte():
    """Many times the slot count, with varying lengths, crossing the
    wrap boundary at every lap — every buffer must come back identical."""
    ring = make_ring(num_slots=4, slot_bytes=64)
    payloads = [bytes([i % 256]) * (1 + (7 * i) % 64) for i in range(50)]
    written = 0
    for read_index in range(len(payloads)):
        while written < len(payloads) and ring.try_write(payloads[written]):
            written += 1  # fill to the boundary so every lap wraps while full
        data = ring.try_read()
        assert data == payloads[read_index], f"buffer {read_index} corrupted"
    assert written == len(payloads)
    assert ring.depth == 0
    assert ring.torn_batches == 0
    assert ring.high_water == 4  # the ring really filled to the boundary


def test_write_rejects_oversized_buffer():
    ring = make_ring(num_slots=2, slot_bytes=64)
    with pytest.raises(ValueError):
        ring.try_write(b"x" * 65)


# ------------------------------------------------------------- torn writes
def test_writer_died_mid_write_reader_survives_and_torn_batch_is_counted():
    """A write-begin marker without a commit (the exact shared state a
    SIGKILL mid-write leaves behind) is invisible to the reader; the
    restarted writer reusing the slot counts the torn batch."""
    ring = make_ring(num_slots=4, slot_bytes=64)
    assert ring.try_write(b"delivered")
    assert ring.try_read() == b"delivered"

    # Simulate the kill: the victim stored its begin marker (odd sequence)
    # and some payload bytes, but died before the commit/cursor stores.
    writer = ring._load(_HDR_WRITER_CURSOR)
    slot = RING_HEADER_BYTES + (writer % 4) * ring._stride
    ring._store(slot, 2 * writer + 1)
    ring._buf[slot + 16 : slot + 24] = b"torndata"

    assert ring.try_read() is None  # nothing published: the reader never wedges
    assert ring.depth == 0
    assert ring.torn_batches == 0  # not yet discovered

    # The restarted writer reuses the slot: the stale marker is detected,
    # counted, and the fresh batch goes through untouched.
    assert ring.try_write(b"after-restart")
    assert ring.torn_batches == 1
    assert ring.try_read() == b"after-restart"
    assert ring.try_write(b"steady-state")
    assert ring.torn_batches == 1  # counted exactly once


def test_client_process_killed_mid_stream_then_restart_dedup(transport):
    """The mp.Queue kill test, on rings: SIGKILL a streaming client process;
    the reader keeps draining, a restart resends and the server's message
    log dedups.  No locks to orphan means no wedge to tolerate."""
    buffer = FIFOBuffer(capacity=10 * NUM_STEPS)
    aggregator = DataAggregator(rank=0, router=transport, buffer=buffer,
                                expected_clients=1, message_log=MessageLog())
    transport.lease_client(0)  # the parent leases, as the launcher does
    aggregator.start()
    try:
        process = FORK.Process(
            target=stream_steps,
            args=(transport, 0, NUM_STEPS),
            kwargs={"step_delay": 0.01, "batch_size": 4},
            daemon=True,
        )
        process.start()
        assert wait_until(lambda: aggregator.stats.samples_received >= 5), \
            "server never received the first samples"
        process.kill()
        process.join(DEADLINE)
        assert not process.is_alive()

        received_before_restart = aggregator.stats.samples_received
        assert received_before_restart < NUM_STEPS

        restarted = FORK.Process(target=stream_steps,
            args=(transport, 0, NUM_STEPS),
            kwargs={"batch_size": 4}, daemon=True)
        restarted.start()
        restarted.join(DEADLINE)
        assert restarted.exitcode == 0
        assert wait_until(lambda: aggregator.reception_complete), \
            "ClientFinished never reached the aggregator"
    finally:
        aggregator.stop()

    assert aggregator.stats.samples_received == NUM_STEPS
    assert aggregator.stats.duplicates_discarded >= received_before_restart - 1
    # A SIGKILL landing exactly mid-write tears at most the one in-flight
    # batch, which the restarted writer detects and counts.
    assert transport.stats.torn_batches <= 1
    assert transport.stats.dropped_messages == 0


# ------------------------------------------------------------ slow reader
def test_slow_reader_drop_accounting_matches_transport_stats():
    """With no reader draining, a bounded push times out on the full ring
    and every dropped message lands in ``TransportStats.dropped_messages``."""
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=1,
        ring_slots=2, ring_slot_bytes=4096)
    try:
        message = TimeStepMessage(client_id=0, time_step=0, payload=FIELD)
        transport.push(0, message)
        transport.push(0, message)

        began = time.monotonic()
        with pytest.raises(queue.Full):
            transport.push(0, message, timeout=QUEUE_DROP_TIMEOUT)
        assert time.monotonic() - began < DEADLINE  # timed out, did not hang
        assert transport.stats.dropped_messages == 1

        with pytest.raises(queue.Full):
            transport.push_many(
                0,
                [TimeStepMessage(client_id=0, time_step=step, payload=FIELD)
                    for step in range(3)],
                timeout=QUEUE_DROP_TIMEOUT,
            )
        assert transport.stats.dropped_messages == 4  # whole batch dropped

        # Messages that did get through are not counted as dropped, and the
        # ring's high-water mark recorded the saturated depth.
        assert transport.stats.messages_routed == 2
        assert transport.stats.ring_depth_high_water == {0: 2}
    finally:
        transport.shutdown()


# --------------------------------------------------------- message routing
def test_finished_never_overtakes_ring_data(transport):
    """``ClientFinished`` rides the client's ring behind the steps sent before
    it, so a poll budget that splits the step batch still delivers it last."""
    steps = [TimeStepMessage(client_id=0, time_step=step, payload=FIELD) for step in range(6)]
    transport.push_many(0, steps)
    transport.push(0, ClientFinished(client_id=0, total_sent=6))

    received = []
    deadline = time.monotonic() + DEADLINE
    while not (received and isinstance(received[-1], ClientFinished)):
        assert time.monotonic() < deadline, "finished marker never arrived"
        received.extend(transport.poll_batches(0, max_messages=2, timeout=0.1))
    chunks = received[:-1]  # the budget of 2 split the 6-step batch into 3 chunks
    assert [len(chunk) for chunk in chunks] == [2, 2, 2]
    assert np.concatenate([chunk.time_steps for chunk in chunks]).tolist() == list(range(6))


def test_one_clients_stream_leaves_the_ring_in_send_order(transport):
    """Hello, steps and finished of one client share its ring: they come out
    in send order whatever the poll budget, and decoding them frees nothing —
    the lease is the server's to release, not the reader's."""
    api = ClientAPI(transport, 0, send_batch_size=4)
    api.init_communication(parameters=(1.0, 2.0), num_time_steps=6, field_shape=FIELD.shape)
    for step in range(6):
        api.send(step, step * 0.1, (1.0, 2.0), FIELD)
        if step == 2:
            api._connection.flush()  # a batch boundary inside the stream
    slot = slot_of(transport, 0)
    assert slot is not None  # connect() leased it in this, the creating process
    api.finalize_communication()

    received = []
    deadline = time.monotonic() + DEADLINE
    while not (received and isinstance(received[-1], ClientFinished)):
        assert time.monotonic() < deadline, "finished marker never arrived"
        polled = transport.poll_batches(0, max_messages=2, timeout=0.1)
        assert sum(len(i) if isinstance(i, ColumnBatch) else 1 for i in polled) <= 2
        received.extend(polled)
    assert slot_of(transport, 0) == slot  # decoding the finished released nothing
    order = []
    for item in received:
        if isinstance(item, ColumnBatch):
            order.extend(item.time_steps.tolist())
        else:
            order.append(type(item))
    assert order == [ClientHello, 0, 1, 2, 3, 4, 5, ClientFinished]
    assert transport.pending(0) == 0
    transport.release_client(0)
    assert slot_of(transport, 0) is None


def test_a_drain_takes_the_rings_in_turn(transport):
    """Client A queues 4 batches, then client B queues 4: a poll whose budget
    holds two batches returns rows of both clients (the sweep resumes after
    the ring it read last), and each client's rows keep their send order."""
    rows = 3
    for client_id in (0, 1):
        transport.lease_client(client_id)
        for batch in range(4):
            steps = [
                TimeStepMessage(client_id=client_id, time_step=step, time_value=0.0,
                                parameters=(1.0, 2.0), payload=FIELD, sequence_number=step)
                for step in range(batch * rows, (batch + 1) * rows)
            ]
            transport.push_many(0, steps)

    first = transport.poll_batches(0, max_messages=2 * rows, timeout=1.0)
    assert {int(s) for chunk in first for s in chunk.source_ids} == {0, 1}

    received = list(first)
    deadline = time.monotonic() + DEADLINE
    while transport.pending(0):
        assert time.monotonic() < deadline, "the rings never drained"
        received.extend(transport.poll_batches(0, max_messages=2 * rows, timeout=0.1))
    merged = ColumnBatch.concat(received)
    for client_id in (0, 1):
        mine = merged.source_ids == client_id
        assert merged.time_steps[mine].tolist() == list(range(4 * rows))


def _hammer_control_messages(transport, client_id):
    """Victim body: hello broadcasts until killed."""
    api = ClientAPI(transport, client_id)
    api.init_communication(parameters=(1.0, 2.0), num_time_steps=1, field_shape=FIELD.shape)
    hello = ClientHello(client_id=client_id, parameters=(1.0, 2.0), num_time_steps=1,
                        field_shape=FIELD.shape)
    while True:
        api._connection.broadcast(hello)


def _connect_and_push(transport, client_id):
    """Victim body: connect, then stream steps until killed."""
    api = ClientAPI(transport, client_id, send_batch_size=2)
    api.init_communication(parameters=(1.0, 2.0), num_time_steps=1, field_shape=FIELD.shape)
    step = 0
    while True:
        api.send(step, 0.0, (1.0, 2.0), FIELD)
        step += 1


def assert_bystander_completes(transport, client_id):
    """A fresh client process runs init + finalize within ``DEADLINE``."""
    bystander = FORK.Process(target=stream_steps, args=(transport, client_id, 0),
                                   daemon=True)
    bystander.start()
    finished = False
    deadline = time.monotonic() + DEADLINE
    while not finished:
        assert time.monotonic() < deadline, "the bystander's finished never arrived"
        for item in transport.poll_batches(0, max_messages=64, timeout=0.05):
            finished |= isinstance(item, ClientFinished) and item.client_id == client_id
    bystander.join(DEADLINE)
    assert bystander.exitcode == 0


def test_kill_during_control_pushes_never_wedges_another_client(transport):
    """A client SIGKILLed at a random point of its hello pushes costs at most
    the batch it was writing; a second client's init + finalize always
    completes.  (On the old shared control queue such a kill could orphan the
    queue's writer lock and wedge every other client's hello/finished.)"""
    kills = 20
    rng = random.Random(14)
    transport.lease_client(0)
    transport.lease_client(1)
    for _ in range(kills):
        routed_before = transport.stats.messages_routed
        victim = FORK.Process(target=_hammer_control_messages,
                                    args=(transport, 0), daemon=True)
        victim.start()
        # This test's kills land in the push loop; the connect() window is
        # the next test's.
        assert wait_until(lambda: transport.stats.messages_routed > routed_before,
                          interval=0.001), "victim never pushed"
        kill_at = time.monotonic() + rng.uniform(0.0, 0.004)
        while time.monotonic() < kill_at:  # keep draining so the victim keeps writing
            transport.poll_batches(0, max_messages=64, timeout=0)
        victim.kill()
        victim.join(DEADLINE)
        assert not victim.is_alive()
        assert_bystander_completes(transport, 1)
    assert transport.stats.torn_batches <= kills
    assert transport.stats.dropped_messages == 0


def test_kill_inside_connect_never_wedges_another_client(transport):
    """Victims SIGKILLed 0-4 ms after ``start()`` — mostly before or inside
    ``connect()`` — wedge nothing: a forked client's connect takes no lock
    and writes no shared table, so a bystander always completes.  (With a
    cross-process lease-table lock, a kill inside connect() left it held and
    every later connect() hung.)"""
    kills = 20
    rng = random.Random(22)
    transport.lease_client(0)
    transport.lease_client(1)
    for _ in range(kills):
        victim = FORK.Process(target=_connect_and_push, args=(transport, 0),
                                    daemon=True)
        victim.start()
        kill_at = time.monotonic() + rng.uniform(0.0, 0.004)
        while time.monotonic() < kill_at:
            transport.poll_batches(0, max_messages=64, timeout=0)
        victim.kill()
        victim.join(DEADLINE)
        assert not victim.is_alive()
        assert_bystander_completes(transport, 1)
    assert transport.stats.torn_batches <= kills
    assert transport.stats.dropped_messages == 0


def _connect_without_lease(transport, client_id):
    began = time.monotonic()
    with pytest.raises(RuntimeError, match=rf"lease_client\({client_id}\)"):
        transport.connect(client_id)
    assert time.monotonic() - began < 1.0


def test_forked_client_without_a_parent_lease_fails_at_once(transport):
    """Only the server process leases: a forked child with no inherited lease
    raises naming ``lease_client`` instead of waiting for a free slot."""
    child = FORK.Process(target=_connect_without_lease, args=(transport, 5),
                               daemon=True)
    child.start()
    child.join(DEADLINE)
    assert child.exitcode == 0
    assert slot_of(transport, 5) is None  # the child wrote no table


def test_oversized_batches_split_and_oversized_message_raises():
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=1,
        ring_slots=8, ring_slot_bytes=512)
    try:
        big = np.arange(64, dtype=np.float32)  # 4 packed messages > 512 B
        batch = [TimeStepMessage(client_id=0, time_step=step, payload=big) for step in range(4)]
        transport.push_many(0, batch)
        received = []
        while sum(len(chunk) for chunk in received) < 4:
            chunks = transport.poll_batches(0, max_messages=8, timeout=1.0)
            assert chunks, "split batch never arrived"
            received.extend(chunks)
        # Order and bytes survive the split.
        polled = ColumnBatch.concat(received)
        assert polled.time_steps.tolist() == [0, 1, 2, 3]
        assert polled.source_ids.tolist() == [0] * 4
        np.testing.assert_array_equal(polled.targets, np.tile(big, (4, 1)))

        huge = TimeStepMessage(client_id=0, time_step=9, payload=np.arange(512, dtype=np.float32))
        with pytest.raises(WireFormatError, match="ring_slot_bytes"):
            transport.push(0, huge)
        assert transport.stats.dropped_messages == 1
    finally:
        transport.shutdown()


# ------------------------------------------------------------- slot leases
def test_slot_lease_connect_finish_recycles():
    """Two lease slots serve four sequential clients: connect leases in the
    creating process, the release after the client finished recycles the
    slot, and the next client reuses it."""
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=2,
        ring_slots=8, ring_slot_bytes=4096)
    try:
        for client_id in range(4):
            transport.connect(client_id)
            slot = slot_of(transport, client_id)
            assert slot is not None
            block = StepBlock(client_id, width=0, field_len=FIELD.size)
            block.append(0, 0.0, 0, (), FIELD)
            transport.push_many(0, block)
            transport.push(0, ClientFinished(client_id=client_id, total_sent=1))
            received = []
            while len(received) < 2:
                received.extend(transport.poll_batches(0, max_messages=8, timeout=1.0))
            assert received[0].source_ids.tolist() == [client_id]
            assert isinstance(received[-1], ClientFinished)
            assert slot_of(transport, client_id) == slot  # the reader frees nothing
            transport.release_client(client_id)
            assert slot_of(transport, client_id) is None
        # Four clients fit through two slots; no torn/dropped traffic.
        assert transport.stats.dropped_messages == 0
        assert transport.stats.torn_batches == 0
    finally:
        transport.shutdown()


def test_slot_lease_exhaustion_raises_actionable_error():
    """A full table is a sizing bug, not a wait: it raises at once, naming
    the bound."""
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=1,
        ring_slots=4, ring_slot_bytes=4096)
    try:
        assert transport.lease_client(0) == transport.lease_client(0) == 0  # idempotent
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="max_concurrent_clients=1"):
            transport.connect(1)
        assert time.monotonic() - began < 1.0
    finally:
        transport.shutdown()


def test_lease_less_push_takes_the_connect_path():
    """A push without a lease leases like ``connect`` does in the creating
    process — there is no other channel to fall back to — and a full table
    raises naming the knob before anything is written."""
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=1,
        ring_slots=4, ring_slot_bytes=4096)
    try:
        transport.push(0, TimeStepMessage(client_id=0, time_step=0, payload=FIELD))
        assert slot_of(transport, 0) == 0  # leased on the first push
        with pytest.raises(RuntimeError, match="max_concurrent_clients"):
            transport.push(0, TimeStepMessage(client_id=1, time_step=0, payload=FIELD))
        with pytest.raises(RuntimeError, match="max_concurrent_clients"):
            transport.push(0, ClientHello(client_id=1))
        (chunk,) = transport.poll_batches(0, max_messages=8, timeout=1.0)
        assert chunk.source_ids.tolist() == [0]  # nothing else got in
        assert transport.pending(0) == 0
        assert transport.stats.dropped_messages == 0
    finally:
        transport.shutdown()


def test_concurrent_leases_never_share_a_slot():
    """Launcher pool threads lease and release concurrently (one per slot,
    more threads than cores, a tiny switch interval): no slot ever has two
    holders and the table ends empty."""
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=4,
        ring_slots=2, ring_slot_bytes=1024)
    holders = [None] * 4
    clashes = []

    def pool_thread(first_id):
        for round_index in range(300):
            client_id = first_id + 4 * round_index
            slot = transport.lease_client(client_id)
            if holders[slot] is not None:
                clashes.append((slot, holders[slot], client_id))
            holders[slot] = client_id
            time.sleep(0)
            if holders[slot] != client_id:
                clashes.append((slot, holders[slot], client_id))
            holders[slot] = None
            transport.release_client(client_id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=pool_thread, args=(first,), daemon=True)
                   for first in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(DEADLINE)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        transport.shutdown()
    assert clashes == []
    assert transport._slots == {} and sorted(transport._free) == [0, 1, 2, 3]


def test_shm_is_not_a_queue_transport(transport):
    """Structural pin: the ring backend has no queue to fall back to and no
    cross-process lock.  The per-rank wakeup semaphores are its one
    cross-process primitive; a post is one atomic operation, so a client
    killed while posting orphans nothing."""
    assert not issubclass(ShmRingTransport, MultiprocessTransport)
    assert not hasattr(transport, "_queues")
    assert not hasattr(transport, "_shared")  # no cross-process stats lock either
    assert not hasattr(transport, "_table_lock")
    sync = multiprocessing.synchronize
    values = [item for value in vars(transport).values()
              for item in (value if isinstance(value, list) else [value])]
    assert not any(isinstance(value, (sync.Lock, sync.RLock, sync.Condition, sync.Event))
                   for value in values)
    assert [value for value in values if isinstance(value, sync.SemLock)] == transport._wakeups
    assert all(type(wakeup) is sync.Semaphore for wakeup in transport._wakeups)


def test_slot_lease_killed_client_restart_reuses_its_lease(transport):
    """The lease outlives a killed client: the restarted incarnation (same
    client id) inherits the same slot, and the slot recycles only when the
    server releases it."""
    slot = transport.lease_client(0)
    process = FORK.Process(
        target=stream_steps, args=(transport, 0, NUM_STEPS),
        kwargs={"step_delay": 0.01, "batch_size": 4}, daemon=True,
    )
    process.start()
    assert wait_until(lambda: transport.pending(0) > 0), "client never pushed"
    process.kill()
    process.join(DEADLINE)

    assert slot_of(transport, 0) == slot  # lease survives the kill
    restarted = FORK.Process(target=stream_steps,
        args=(transport, 0, NUM_STEPS),
        kwargs={"batch_size": 4}, daemon=True)
    restarted.start()
    restarted.join(DEADLINE)
    assert restarted.exitcode == 0

    drained: list = []
    deadline = time.monotonic() + DEADLINE
    while time.monotonic() < deadline:
        chunk = transport.poll_batches(0, max_messages=64, timeout=0.1)
        drained.extend(chunk)
        if any(isinstance(m, ClientFinished) for m in chunk):
            break
    assert any(isinstance(m, ClientFinished) for m in drained)
    assert slot_of(transport, 0) == slot  # still leased: only the server frees it
    transport.release_client(0)
    assert slot_of(transport, 0) is None
    assert transport.stats.torn_batches <= 1
    assert transport.stats.dropped_messages == 0


def test_slot_lease_force_release_recycles_a_dead_clients_slot():
    """``release_client`` (after the client's last process was joined) frees
    the slot immediately; the next holder appends behind whatever the dead
    client left undrained."""
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=1,
        ring_slots=4, ring_slot_bytes=4096)
    try:
        transport.connect(7)
        transport.push(0, TimeStepMessage(client_id=7, time_step=0, payload=FIELD))
        transport.release_client(7)
        assert slot_of(transport, 7) is None
        transport.connect(8)  # the slot is free again
        transport.push(0, TimeStepMessage(client_id=8, time_step=5, payload=FIELD))
        # The dead client's undrained batch is still delivered (attribution
        # travels in the message, not the lease), ahead of the new holder's.
        chunks = []
        while len(chunks) < 2:
            chunks.extend(transport.poll_batches(0, max_messages=8, timeout=1.0))
        assert [c.source_ids.tolist() for c in chunks] == [[7], [8]]
        assert [c.time_steps.tolist() for c in chunks] == [[0], [5]]
        np.testing.assert_array_equal(chunks[0].targets[0], FIELD)
    finally:
        transport.shutdown()


# ---------------------------------------------------- launcher-held leases
LAUNCHED_STEPS = 8
HANGING, FAILING = 1, 4
EXPECTED_DELIVERED = {cid: 2 if cid == FAILING else LAUNCHED_STEPS for cid in range(6)}


class StepSolver:
    def iter_steps(self, params):
        for step in range(1, LAUNCHED_STEPS + 1):
            time.sleep(0.005)
            yield step, step * 0.1, np.full(16, float(step), dtype=np.float32)


class AlwaysFailingClient(SimulationClient):
    def prepare_restart(self):
        super().prepare_restart()
        self.fail_at_step = 2  # fails again on every attempt


class RecordingLauncher(Launcher):
    """Logs when the spawner reports each client process forked and reaped
    (in process mode; the reap is logged before its lease may be released)."""

    events: list

    def _on_report(self, running, client_id, pid, outcome):
        self.events.append(("fork" if outcome is None else "join", client_id, None))
        super()._on_report(running, client_id, pid, outcome)


def record_leases(transport, events):
    """Log every lease with its slot; a release is logged *before* the slot
    is freed, so a later lease of that slot is always logged after it."""
    lease, release = transport.lease_client, transport.release_client

    def recording_lease(client_id):
        slot = lease(client_id)
        events.append(("lease", client_id, slot))
        return slot

    def recording_release(client_id):
        events.append(("release", client_id, slot_of(transport, client_id)))
        release(client_id)

    transport.lease_client, transport.release_client = recording_lease, recording_release


def run_launched_study(transport, client_mode, events):
    """Six clients through a two-wide launcher into one aggregator.  In
    process mode client ``HANGING`` hangs after step 3 once (the watchdog
    SIGKILLs it mid-stream, the restart resends from step 1); client
    ``FAILING`` fails after step 2 on every attempt and exhausts its restarts."""
    monitor = HeartbeatMonitor()
    aggregator = DataAggregator(rank=0, router=transport, buffer=FIFOBuffer(capacity=100),
                                expected_clients=6, message_log=MessageLog(),
                                heartbeat_monitor=monitor)

    def factory(spec):
        kind = AlwaysFailingClient if spec.client_id == FAILING else SimulationClient
        if spec.client_id == HANGING and client_mode == "process":
            kind = HangingClient
        return kind(client_id=spec.client_id, parameters=(1.0, 2.0), solver=StepSolver(),
                    router=transport, num_time_steps=LAUNCHED_STEPS)

    specs = [ClientSpec(client_id=cid, parameters=np.array([1.0, 2.0]),
                        fail_at_step=2 if cid == FAILING else None)
             for cid in range(6)]
    launcher = RecordingLauncher(
        factory, specs,
        LauncherConfig(max_concurrent_clients=2, max_restarts=1, client_mode=client_mode,
                       heartbeat_timeout=0.5),
        heartbeat_monitor=monitor,
    )
    launcher.events = events

    def delivered():
        return {cid: len(steps) for cid, steps in aggregator.message_log.state().items()}

    aggregator.start()
    try:
        report = launcher.run()
        wait_until(lambda: delivered() == EXPECTED_DELIVERED)
    finally:
        aggregator.stop()
    return report, delivered()


def test_launcher_leases_around_every_process_of_a_client():
    """A launcher-driven shm study, two slots for six clients, one client
    SIGKILLed mid-stream and restarted, one exhausting its restarts: it
    delivers exactly the in-process run's per-client counts, and the
    launcher's leases bracket every process of a client without two live
    holders ever sharing a slot."""
    inproc = MessageRouter(1)
    try:
        inproc_report, inproc_delivered = run_launched_study(inproc, "thread", [])
    finally:
        inproc.shutdown()
    assert inproc_delivered == EXPECTED_DELIVERED
    assert inproc_report.clients_failed == 1

    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=2,
                                 ring_slots=16, ring_slot_bytes=8192)
    events: list = []
    record_leases(transport, events)
    try:
        report, shm_delivered = run_launched_study(transport, "process", events)
        stats = transport.stats
        table = dict(transport._slots), sorted(transport._free)
    finally:
        transport.shutdown()

    assert shm_delivered == inproc_delivered
    assert (report.clients_completed, report.clients_failed) == (5, 1)
    assert report.unresponsive_kills == 1 and stats.unresponsive_kills == 1
    assert report.restarts == 3  # the killed client once, the failing one twice
    assert stats.dropped_messages == 0
    assert table == ({}, [0, 1])  # every lease returned

    holders: dict = {}
    for cid in range(6):
        mine = [(index, kind) for index, (kind, client, _) in enumerate(events)
                if client == cid]
        kinds = [kind for _, kind in mine]
        assert kinds[0] == "lease" and kinds[-1] == "release", (cid, kinds)
        assert kinds.count("lease") == kinds.count("release") == 1, (cid, kinds)
        assert kinds.count("fork") == kinds.count("join") == (2 if cid in (HANGING, FAILING)
                                                              else 1)
    for kind, cid, slot in events:
        if kind == "lease":
            assert slot not in holders, f"client {cid} got slot {slot} of {holders[slot]}"
            holders[slot] = cid
        elif kind == "release":
            assert holders.pop(slot) == cid
    assert holders == {}


def test_push_after_close_counts_dropped():
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=1)
    try:
        message = TimeStepMessage(client_id=0, time_step=0, payload=FIELD)
        transport.push(0, message)
        transport.close()
        from repro.parallel.transport import RouterClosed

        with pytest.raises(RouterClosed):
            transport.push(0, message)
        assert transport.stats.dropped_messages == 1
        assert transport.stats.messages_routed == 1
    finally:
        transport.shutdown()
