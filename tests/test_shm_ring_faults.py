"""Fault-injection tests for the shared-memory ring-buffer transport.

The ring closes the documented ``mp.Queue`` limitation: a client SIGKILLed
mid-write must cost at most the one batch it was writing — never a wedged
reader or a stalled lock.  These tests pin that contract, the slow-reader
drop accounting, wraparound integrity, and that a client's control messages
ride its ring in send order (one ordered channel per client, no side queue).
"""

import queue
import random
import time

import numpy as np
import pytest

from repro.buffers import FIFOBuffer
from repro.buffers.columns import ColumnBatch
from repro.client.api import ClientAPI
from repro.launcher.launcher import _fork_mp
from repro.parallel.messages import (
    ClientFinished,
    ClientHello,
    Heartbeat,
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
from repro.server.aggregator import DataAggregator
from repro.server.fault import MessageLog
from repro.utils.constants import QUEUE_DROP_TIMEOUT

DEADLINE = 30.0  # generous cap: every blocking wait in this module fails by then

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
    owners = list(transport._slot_owner)
    return owners.index(client_id) if client_id in owners else None


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
                                expected_clients=1, message_log=MessageLog(),
                                poll_timeout=0.02)
    aggregator.start()
    try:
        process = _fork_mp().Process(
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

        restarted = _fork_mp().Process(target=stream_steps,
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
    """Hello, steps, heartbeat and finished of one client share its ring: they
    come out in send order whatever the poll budget (on the old control queue
    the heartbeat overtook the steps), and decoding the finished frees the lease."""
    api = ClientAPI(transport, 0, send_batch_size=4)
    api.init_communication(parameters=(1.0, 2.0), num_time_steps=6, field_shape=FIELD.shape)
    for step in range(6):
        api.send(step, step * 0.1, (1.0, 2.0), FIELD)
        if step == 2:
            api.send_heartbeat(timestamp=1.0, progress=0.5)
    assert slot_of(transport, 0) is not None
    api.finalize_communication()

    received = []
    deadline = time.monotonic() + DEADLINE
    while not (received and isinstance(received[-1], ClientFinished)):
        assert time.monotonic() < deadline, "finished marker never arrived"
        # The lease is held until the finished itself is decoded.
        assert slot_of(transport, 0) is not None
        polled = transport.poll_batches(0, max_messages=2, timeout=0.1)
        assert sum(len(i) if isinstance(i, ColumnBatch) else 1 for i in polled) <= 2
        received.extend(polled)
    assert slot_of(transport, 0) is None
    order = []
    for item in received:
        if isinstance(item, ColumnBatch):
            order.extend(item.time_steps.tolist())
        else:
            order.append(type(item))
    assert order == [ClientHello, 0, 1, 2, Heartbeat, 3, 4, 5, ClientFinished]
    assert transport.pending(0) == 0


def _hammer_control_messages(transport, client_id):
    """Victim body: hello broadcasts and heartbeats until killed."""
    api = ClientAPI(transport, client_id)
    api.init_communication(parameters=(1.0, 2.0), num_time_steps=1, field_shape=FIELD.shape)
    hello = ClientHello(client_id=client_id, parameters=(1.0, 2.0), num_time_steps=1,
                        field_shape=FIELD.shape)
    while True:
        api._connection.broadcast(hello)
        api.send_heartbeat(timestamp=time.time(), progress=0.0)


def test_kill_during_control_pushes_never_wedges_another_client(transport):
    """A client SIGKILLed at a random point of its hello/heartbeat pushes costs
    at most the batch it was writing; a second client's init + finalize always
    completes.  (On the old shared control queue such a kill could orphan the
    queue's writer lock and wedge every other client's hello/finished.)"""
    kills = 20
    rng = random.Random(14)
    for _ in range(kills):
        routed_before = transport.stats.messages_routed
        victim = _fork_mp().Process(target=_hammer_control_messages,
                                    args=(transport, 0), daemon=True)
        victim.start()
        # The kill must land in the push loop, past connect(): the lease-table
        # lock taken there is documented as outside the kill-safe path.
        assert wait_until(lambda: transport.stats.messages_routed > routed_before,
                          interval=0.001), "victim never pushed"
        kill_at = time.monotonic() + rng.uniform(0.0, 0.004)
        while time.monotonic() < kill_at:  # keep draining so the victim keeps writing
            transport.poll_batches(0, max_messages=64, timeout=0)
        victim.kill()
        victim.join(DEADLINE)
        assert not victim.is_alive()

        bystander = _fork_mp().Process(target=stream_steps, args=(transport, 1, 0),
                                       daemon=True)
        bystander.start()
        finished = False
        deadline = time.monotonic() + DEADLINE
        while not finished:
            assert time.monotonic() < deadline, "second client's finished never arrived"
            for item in transport.poll_batches(0, max_messages=64, timeout=0.05):
                finished |= isinstance(item, ClientFinished) and item.client_id == 1
        bystander.join(DEADLINE)
        assert bystander.exitcode == 0
    assert transport.stats.torn_batches <= kills
    assert transport.stats.dropped_messages == 0


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
    """Two lease slots serve four sequential clients: connect leases, the
    delivered finished marker releases, and the next client reuses the slot."""
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=2,
        ring_slots=8, ring_slot_bytes=4096,
        lease_timeout=5.0)
    try:
        for client_id in range(4):
            connection = transport.connect(client_id)
            slot = slot_of(transport, client_id)
            assert slot is not None
            connection.send_round_robin(
                TimeStepMessage(client_id=client_id, time_step=0, payload=FIELD)
            )
            transport.push(0, ClientFinished(client_id=client_id, total_sent=1))
            received = []
            while len(received) < 2:
                received.extend(transport.poll_batches(0, max_messages=8, timeout=1.0))
            assert received[0].source_ids.tolist() == [client_id]
            assert isinstance(received[-1], ClientFinished)
            # Finished delivered on the only rank: the lease is recycled.
            assert slot_of(transport, client_id) is None
        # Four clients fit through two slots; no torn/dropped traffic.
        assert transport.stats.dropped_messages == 0
        assert transport.stats.torn_batches == 0
    finally:
        transport.shutdown()


def test_slot_lease_exhaustion_raises_actionable_error():
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=1,
        ring_slots=4, ring_slot_bytes=4096,
        lease_timeout=0.2)
    try:
        transport.connect(0)
        began = time.monotonic()
        with pytest.raises(TimeoutError, match="max_concurrent_clients"):
            transport.connect(1)
        assert time.monotonic() - began < DEADLINE
    finally:
        transport.shutdown()


def test_lease_less_push_takes_the_connect_path():
    """A push without a lease leases like ``connect`` does — there is no other
    channel to fall back to: a full table times out naming the knob, and a
    negative id (the free-slot sentinel) is refused."""
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=1,
        ring_slots=4, ring_slot_bytes=4096,
        lease_timeout=0.2)
    try:
        transport.push(0, TimeStepMessage(client_id=0, time_step=0, payload=FIELD))
        assert slot_of(transport, 0) == 0  # leased on the first push
        with pytest.raises(TimeoutError, match="max_concurrent_clients"):
            transport.push(0, TimeStepMessage(client_id=1, time_step=0, payload=FIELD))
        with pytest.raises(TimeoutError, match="max_concurrent_clients"):
            transport.push(0, ClientHello(client_id=1))
        with pytest.raises(ValueError, match="non-negative"):
            transport.push(0, Heartbeat(client_id=-1))
        (chunk,) = transport.poll_batches(0, max_messages=8, timeout=1.0)
        assert chunk.source_ids.tolist() == [0]  # nothing else got in
        assert transport.pending(0) == 0
    finally:
        transport.shutdown()


def test_shm_is_not_a_queue_transport(transport):
    """Structural pin: the ring backend has no queue to fall back to."""
    assert not issubclass(ShmRingTransport, MultiprocessTransport)
    assert not hasattr(transport, "_queues")
    assert not hasattr(transport, "_shared")  # no cross-process stats lock either


def test_slot_lease_killed_client_restart_reuses_its_lease(transport):
    """A client killed mid-lease still owns its slot; the restarted
    incarnation (same client id) finds and reuses it instead of leaking it."""
    process = _fork_mp().Process(
        target=stream_steps, args=(transport, 0, NUM_STEPS),
        kwargs={"step_delay": 0.01, "batch_size": 4}, daemon=True,
    )
    process.start()
    assert wait_until(lambda: slot_of(transport, 0) is not None), \
        "client never leased a slot"
    slot_before = slot_of(transport, 0)
    process.kill()
    process.join(DEADLINE)

    assert slot_of(transport, 0) == slot_before  # lease survives the kill
    restarted = _fork_mp().Process(target=stream_steps,
        args=(transport, 0, NUM_STEPS),
        kwargs={"batch_size": 4}, daemon=True)
    restarted.start()
    restarted.join(DEADLINE)
    assert restarted.exitcode == 0
    assert slot_of(transport, 0) == slot_before or slot_of(transport, 0) is None

    drained: list = []
    deadline = time.monotonic() + DEADLINE
    while time.monotonic() < deadline:
        chunk = transport.poll_batches(0, max_messages=64, timeout=0.1)
        drained.extend(chunk)
        if any(isinstance(m, ClientFinished) for m in chunk):
            break
    assert any(isinstance(m, ClientFinished) for m in drained)
    # Finished delivered on the single rank: the lease is recycled for good.
    assert slot_of(transport, 0) is None


def test_slot_lease_force_release_recycles_a_dead_clients_slot():
    """``release_client`` (the launcher's permanent-failure path) frees the
    slot immediately, and the next client can lease it."""
    transport = ShmRingTransport(num_server_ranks=1, max_concurrent_clients=1,
        ring_slots=4, ring_slot_bytes=4096,
        lease_timeout=0.2)
    try:
        transport.connect(7)
        transport.push(0, TimeStepMessage(client_id=7, time_step=0, payload=FIELD))
        transport.release_client(7)
        assert slot_of(transport, 7) is None
        transport.connect(8)  # no TimeoutError: the slot is free again
        # The dead client's undrained batch is still delivered (attribution
        # travels in the message, not the lease).
        (chunk,) = transport.poll_batches(0, max_messages=8, timeout=1.0)
        assert chunk.source_ids.tolist() == [7] and chunk.time_steps.tolist() == [0]
        np.testing.assert_array_equal(chunk.targets[0], FIELD)
    finally:
        transport.shutdown()


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
