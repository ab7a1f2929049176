"""Fault-injection tests over the multi-process and TCP transport backends.

Covers the paper's failure protocol on real OS processes: a client process
killed mid-stream, duplicate time steps after its restart (deduplicated by
the server's :class:`MessageLog`), and full-queue push timeouts — plus the
socket equivalents (a connection torn mid-frame, reconnect-and-resend over
the front door, frame round trips).  Every wait is
deadline-bounded so a regression fails fast instead of hanging the suite.
"""

import multiprocessing
import queue
import socket
import time

import numpy as np
import pytest

from repro.buffers import FIFOBuffer
from repro.client.api import ClientAPI
from repro.buffers.columns import ColumnBatch
from repro.parallel import framing
from repro.parallel.messages import (
    ClientFinished,
    ClientHello,
    TimeStepMessage,
    batch_parts,
    columnize,
    pack_many,
)
from repro.parallel.mp_transport import MultiprocessTransport
from repro.parallel.tcp_transport import TcpTransport
from repro.parallel.transport import MessageRouter, RouterClosed
from repro.server.aggregator import DataAggregator
from repro.server.fault import MessageLog

#: Test processes are forked, like the launcher's clients.
FORK = multiprocessing.get_context("fork")

DEADLINE = 30.0  # generous cap: every blocking wait in this module fails by then
#: How long a push waits on a full rank channel before the batch is dropped.
QUEUE_DROP_TIMEOUT = 0.1

NUM_STEPS = 40
FIELD = np.arange(8, dtype=np.float32)


def stream_steps(transport, client_id, num_steps, step_delay=0.0, batch_size=1):
    """Run the three-call client contract, streaming ``num_steps`` messages."""
    api = ClientAPI(transport, client_id, send_batch_size=batch_size)
    api.init_communication(parameters=(1.0, 2.0), num_time_steps=num_steps, field_shape=FIELD.shape)
    for step in range(num_steps):
        api.send(step, step * 0.1, (1.0, 2.0), FIELD)
        if step_delay:
            time.sleep(step_delay)
    api.finalize_communication()


def assert_chunks_carry(chunks, messages):
    """The polled chunks, concatenated, hold exactly ``messages``: every
    column matches the by-reference regrouping, dtype and bytes."""
    assert all(isinstance(chunk, ColumnBatch) for chunk in chunks)
    polled = ColumnBatch.concat(chunks)
    (expected,) = columnize(messages)
    for column in ("source_ids", "time_steps", "sequence_numbers", "inputs", "targets"):
        got, want = getattr(polled, column), getattr(expected, column)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def wait_until(predicate, timeout=DEADLINE, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def transport():
    transport = MultiprocessTransport(num_server_ranks=1, max_queue_size=10_000)
    yield transport
    transport.shutdown()


def make_aggregator(transport, expected_clients=1):
    buffer = FIFOBuffer(capacity=10 * NUM_STEPS)
    aggregator = DataAggregator(
        rank=0,
        router=transport,
        buffer=buffer,
        expected_clients=expected_clients,
        message_log=MessageLog(),
    )
    return aggregator, buffer


# ------------------------------------------------------- kill + restart path
def test_client_process_killed_mid_stream_then_restart_dedup(transport):
    """Kill a streaming client process; its restart resends everything and the
    server's message log discards every duplicate."""
    aggregator, _buffer = make_aggregator(transport)
    aggregator.start()
    try:
        process = FORK.Process(
            target=stream_steps,
            args=(transport, 0, NUM_STEPS),
            kwargs={"step_delay": 0.01, "batch_size": 4},
            daemon=True,
        )
        process.start()
        # Let part of the stream arrive, then kill the client mid-stream.
        assert wait_until(lambda: aggregator.stats.samples_received >= 5), \
            "server never received the first samples"
        process.kill()
        process.join(DEADLINE)
        assert not process.is_alive()

        received_before_restart = aggregator.stats.samples_received
        assert received_before_restart < NUM_STEPS

        # Restart: the dead client's checkpoint died with it, so the restarted
        # run resends every step (plus hello/finished) for the server to dedup.
        restarted = FORK.Process(target=stream_steps, args=(transport, 0, NUM_STEPS),
                                kwargs={"batch_size": 4}, daemon=True)
        restarted.start()
        restarted.join(DEADLINE)
        assert restarted.exitcode == 0

        assert wait_until(lambda: aggregator.reception_complete), \
            "ClientFinished never reached the aggregator"
    finally:
        aggregator.stop()

    # Every unique step was delivered exactly once; every resent duplicate of
    # the pre-kill prefix was discarded by the message log.
    assert aggregator.stats.samples_received == NUM_STEPS
    assert aggregator.stats.duplicates_discarded >= received_before_restart - 1
    assert aggregator.stats.duplicates_discarded < NUM_STEPS
    # A SIGKILL landing exactly mid-put may tear one in-flight buffer, which
    # the transport counts as a single dropped batch; more than that means
    # the accounting is wrong.
    assert transport.stats.dropped_messages <= 1


# ---------------------------------------------------------- full-queue drops
@pytest.mark.parametrize("backend", ["inproc", "mp"])
def test_full_queue_push_timeout_counts_dropped(backend):
    if backend == "inproc":
        transport = MessageRouter(1, max_queue_size=2)
    else:
        transport = MultiprocessTransport(1, max_queue_size=2)
    try:
        transport.connect(client_id=0)
        message = TimeStepMessage(client_id=0, time_step=0, payload=FIELD)
        transport.push(0, message)
        transport.push(0, message)
        if backend == "mp":
            # multiprocessing queues report Full only once the feeder thread
            # has moved both buffers into the bounded pipe machinery.
            assert wait_until(lambda: transport.pending(0) == 2, timeout=5.0)

        began = time.monotonic()
        with pytest.raises(queue.Full):
            transport.push(0, message, timeout=QUEUE_DROP_TIMEOUT)
        assert time.monotonic() - began < DEADLINE  # timed out, did not hang
        assert transport.stats.dropped_messages == 1

        with pytest.raises(queue.Full):
            transport.push_many(0, [message, message], timeout=QUEUE_DROP_TIMEOUT)
        assert transport.stats.dropped_messages == 3  # whole batch dropped

        # Messages that did get through are not counted as dropped.
        assert transport.stats.messages_routed == 2
    finally:
        transport.shutdown()


@pytest.mark.parametrize("backend", ["inproc", "mp", "tcp"])
def test_push_after_close_counts_dropped(backend):
    if backend == "inproc":
        transport = MessageRouter(1)
    elif backend == "tcp":
        transport = TcpTransport(1)
    else:
        transport = MultiprocessTransport(1)
    try:
        transport.connect(client_id=0)
        message = TimeStepMessage(client_id=0, time_step=0, payload=FIELD)
        transport.push(0, message)
        if backend == "tcp":
            # tcp accounts traffic at decode time in the server process, so
            # drain the delivered frame before sampling the counters.
            assert wait_until(lambda: bool(transport.poll_batches(0, timeout=0.1)), timeout=5.0)
        transport.close()
        with pytest.raises(RouterClosed):
            transport.push(0, message)
        assert transport.stats.dropped_messages == 1
        assert transport.stats.messages_routed == 1
    finally:
        transport.shutdown()


# ----------------------------------------------- launcher process-mode path
def test_launcher_process_mode_restarts_failed_client(transport):
    """A client that dies mid-run in its own process is re-forked by the
    launcher; the rerun resends from step zero and the server dedups."""
    from repro.client.simulation_client import SimulationClient
    from repro.launcher.launcher import ClientSpec, Launcher, LauncherConfig

    class TinySolver:
        def iter_steps(self, params):
            for step in range(1, NUM_STEPS + 1):
                yield step, step * 0.1, FIELD

    def factory(spec):
        return SimulationClient(
            client_id=spec.client_id,
            parameters=(1.0, 2.0),
            solver=TinySolver(),
            router=transport,
            num_time_steps=NUM_STEPS,
            send_batch_size=4,
        )

    aggregator, _buffer = make_aggregator(transport)
    aggregator.start()
    try:
        specs = [ClientSpec(client_id=0, parameters=np.array([1.0, 2.0]),
                            fail_at_step=NUM_STEPS // 2)]
        launcher = Launcher(
            factory, specs,
            LauncherConfig(client_mode="process", max_restarts=2,
                process_join_timeout=DEADLINE),
        )
        report = launcher.run()
        assert report.clients_completed == 1
        assert report.clients_failed == 0
        assert report.restarts == 1
        assert report.per_client_steps[0] == NUM_STEPS
        assert wait_until(lambda: aggregator.reception_complete), \
            "restarted client never finished at the server"
    finally:
        aggregator.stop()

    # The failed attempt delivered a prefix that the restarted full run
    # duplicated; the message log discarded exactly that overlap.
    assert aggregator.stats.samples_received == NUM_STEPS
    assert aggregator.stats.duplicates_discarded > 0
    assert aggregator.stats.duplicates_discarded < NUM_STEPS


# -------------------------------------------- batching + checkpoint rewind
def test_checkpointed_restart_rewinds_below_client_buffered_steps():
    """With send batching, steps still buffered client-side at failure must be
    recomputed after a checkpointed restart — never silently skipped."""
    from repro.client.simulation_client import SimulationClient
    from repro.launcher.launcher import ClientSpec, Launcher, LauncherConfig

    transport = MessageRouter(num_server_ranks=2)

    class TinySolver:
        def iter_steps(self, params):
            for step in range(1, NUM_STEPS + 1):
                yield step, step * 0.1, FIELD

    def factory(spec):
        return SimulationClient(
            client_id=spec.client_id,
            parameters=(1.0, 2.0),
            solver=TinySolver(),
            router=transport,
            num_time_steps=NUM_STEPS,
            send_batch_size=8,  # a large undelivered tail when the fault fires
            checkpoint_enabled=True,
        )

    aggregators = []
    for rank in range(2):
        buffer = FIFOBuffer(capacity=10 * NUM_STEPS)
        aggregators.append(DataAggregator(rank=rank, router=transport, buffer=buffer,
                expected_clients=1, message_log=MessageLog()))
    for aggregator in aggregators:
        aggregator.start()
    try:
        specs = [ClientSpec(client_id=0, parameters=np.array([1.0, 2.0]),
                            fail_at_step=NUM_STEPS - 3)]
        report = Launcher(factory, specs, LauncherConfig(max_restarts=1)).run()
        assert report.clients_completed == 1
        assert wait_until(lambda: all(a.reception_complete for a in aggregators))
    finally:
        for aggregator in aggregators:
            aggregator.stop()
        transport.shutdown()

    # Every step reached the server exactly once: the buffered tail was
    # recomputed after the restart instead of being skipped by the checkpoint.
    received = sum(a.stats.samples_received for a in aggregators)
    assert received == NUM_STEPS
    assert transport.stats.dropped_messages == 0


# ----------------------------------------------------- corrupt batch buffers
def test_corrupt_batch_buffer_is_dropped_not_fatal(transport):
    """A torn/garbage buffer on the rank queue (client killed mid-put) is
    counted as a drop and skipped; later batches still deliver."""
    transport._queues[0].put(b"garbage-not-a-packed-batch")
    message = TimeStepMessage(client_id=0, time_step=1, payload=FIELD)
    transport.push(0, message)

    assert wait_until(lambda: transport.pending(0) >= 1, timeout=5.0)
    received = []
    deadline = time.monotonic() + 5.0
    while len(received) < 1 and time.monotonic() < deadline:
        received.extend(transport.poll_batches(0, timeout=0.1))
    assert_chunks_carry(received, [message])
    assert transport.stats.dropped_messages == 1


def test_retired_heartbeat_type_code_is_dropped_and_the_aggregator_survives(transport):
    """A packed buffer carrying the retired type code 3 (the client-clocked
    heartbeat) is dropped and counted like any corrupt buffer; the
    aggregator keeps running and ingests what follows it."""
    from repro.parallel.messages import BATCH_HEADER_BYTES, pack_many

    retired = bytearray(pack_many([ClientFinished(client_id=0)]))
    retired[BATCH_HEADER_BYTES] = 3  # the first message's type byte
    aggregator, _buffer = make_aggregator(transport)
    aggregator.start()
    try:
        transport._queues[0].put(bytes(retired))
        transport.push(0, TimeStepMessage(client_id=0, time_step=1, payload=FIELD))
        transport.push(0, ClientFinished(client_id=0, total_sent=1))
        assert wait_until(lambda: aggregator.reception_complete), \
            "the aggregator stopped ingesting after the retired type code"
    finally:
        aggregator.stop()
    assert transport.failure is None
    assert aggregator.stats.samples_received == 1
    assert transport.stats.dropped_messages == 1


def test_buffered_records_do_not_pin_the_packed_batch(transport):
    """Aggregated samples never alias the wire buffer.

    The transport's decode copies the payload block **once** into the
    chunk's targets matrix and the buffer copies the rows into its columns,
    so a drawn batch is one privately owned block — and nothing references
    the packed transport buffer, which can be released immediately.
    """
    from repro.parallel.messages import pack_many

    aggregator, buffer = make_aggregator(transport)
    wire_buffer = pack_many(
        [TimeStepMessage(client_id=0, time_step=step, payload=FIELD)
            for step in range(4)]
    )
    aggregator._handle_items(transport._decode_packed(wire_buffer, 0))
    batch = buffer.get_batch_columns(4, timeout=1.0)
    assert len(batch) == 4
    wire = np.frombuffer(wire_buffer, dtype=np.uint8)
    assert not np.shares_memory(batch.targets, wire)
    assert not np.shares_memory(batch.inputs, wire)


# ------------------------------------------------------ columnar dedup counters
def test_columnar_drain_counts_a_resent_prefix(transport):
    """The vectorised dedup/liveness bookkeeping counts one duplicate per
    resent key: duplicates_discarded, samples_received and the MessageLog
    totals for a stream whose prefix a restarted client resends."""
    from repro.parallel.messages import pack_many, unpack_columns

    steps = [
        TimeStepMessage(client_id=0, time_step=step, time_value=step * 0.1,
                        parameters=(1.0, 2.0), payload=FIELD)
        for step in range(20)
    ]
    resent = steps[:12]  # a restarted client resends a prefix
    aggregator, buffer = make_aggregator(transport)
    aggregator._handle_items([unpack_columns(pack_many(steps))])
    aggregator._handle_items([unpack_columns(pack_many(resent))])

    assert aggregator.stats.samples_received == buffer.total_put == 20
    assert aggregator.stats.duplicates_discarded == 12
    assert list(aggregator.message_log.state()) == [0]
    assert aggregator.message_log.duplicates_discarded == 12


def test_columnar_drain_counts_partial_duplicates_per_key(transport):
    """A chunk mixing new and duplicate keys is split per key (one duplicate
    counted per rejected key, the rest inserted)."""
    from repro.parallel.messages import pack_many, unpack_columns

    aggregator, buffer = make_aggregator(transport)
    first = [TimeStepMessage(client_id=1, time_step=s, payload=FIELD) for s in range(6)]
    overlap = [TimeStepMessage(client_id=1, time_step=s, payload=FIELD) for s in range(3, 9)]
    aggregator._handle_items([unpack_columns(pack_many(first))])
    aggregator._handle_items([unpack_columns(pack_many(overlap))])
    assert aggregator.stats.samples_received == 9
    assert aggregator.stats.duplicates_discarded == 3
    assert aggregator.message_log.duplicates_discarded == 3
    assert buffer.total_put == 9


# ------------------------------------------------------------ batched sends
def test_mp_round_trip_preserves_order_and_batches(transport):
    """A batched client conversation crosses the process boundary intact."""
    process = FORK.Process(target=stream_steps, args=(transport, 3, 10),
        kwargs={"batch_size": 4}, daemon=True)
    process.start()
    process.join(DEADLINE)
    assert process.exitcode == 0

    received = []
    while True:
        items = transport.poll_batches(0, max_messages=3, timeout=0.5)
        if not items:
            break
        # Poll budget respected across packed batches: a chunk counts its rows.
        assert sum(len(i) if isinstance(i, ColumnBatch) else 1 for i in items) <= 3
        received.extend(items)
    # hello, 10 steps in send order (as chunks split by the budget), finished.
    assert isinstance(received[0], ClientHello) and isinstance(received[-1], ClientFinished)
    chunks = received[1:-1]
    assert all(isinstance(chunk, ColumnBatch) for chunk in chunks)
    assert np.concatenate([chunk.time_steps for chunk in chunks]).tolist() == list(range(10))
    assert np.concatenate([chunk.source_ids for chunk in chunks]).tolist() == [3] * 10
    assert transport.stats.messages_routed == 12
    # Client-side batching moved 10 steps in ceil(10/4) packed buffers, so the
    # channel saw fewer puts than messages (control messages travel alone).
    assert transport.stats.bytes_routed > 0


# -------------------------------------------------------------- tcp faults
@pytest.fixture
def tcp_transport():
    transport = TcpTransport(num_server_ranks=1, max_queue_size=10_000)
    yield transport
    transport.shutdown()


def test_tcp_client_killed_mid_stream_then_restart_dedup(tcp_transport):
    """Kill a client process mid-stream over a socket; the reconnecting
    restart resends everything and the message log discards the duplicates,
    leaving the dedup totals exactly as if nothing had died."""
    transport = tcp_transport
    aggregator, _buffer = make_aggregator(transport)
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

        restarted = FORK.Process(target=stream_steps, args=(transport, 0, NUM_STEPS),
                                       kwargs={"batch_size": 4}, daemon=True)
        restarted.start()
        restarted.join(DEADLINE)
        assert restarted.exitcode == 0

        assert wait_until(lambda: aggregator.reception_complete), \
            "ClientFinished never reached the aggregator"
    finally:
        aggregator.stop()

    # Dedup totals unchanged by the kill: every unique step exactly once,
    # every resent duplicate of the pre-kill prefix discarded.
    assert aggregator.stats.samples_received == NUM_STEPS
    assert aggregator.stats.duplicates_discarded >= received_before_restart - 1
    assert aggregator.stats.duplicates_discarded < NUM_STEPS
    # A SIGKILL landing inside one sendall may leave at most one torn frame
    # on the server side; nothing is silently dropped.
    assert transport.stats.torn_batches <= 1
    assert transport.stats.dropped_messages == 0
    # Both connections announced client 0's epoch through the handshake.
    assert 0 in transport._client_epochs


def test_tcp_torn_frame_counted_not_fatal(tcp_transport):
    """A connection that dies inside a frame counts one torn batch; the front
    door and every later connection keep working."""
    transport = tcp_transport
    raw = socket.create_connection((transport.host, transport.port), timeout=5.0)
    try:
        raw.sendall(framing.encode_hello(client_id=9, epoch=0))
        # Declare a 100-byte batch body but send only a fragment of it.
        header = framing.pack_header(framing.KIND_BATCH, 0, 100)
        raw.sendall(header + b"\x00" * 10)
    finally:
        raw.close()
    assert wait_until(lambda: transport.stats.torn_batches == 1, timeout=5.0), \
        "torn frame was never counted"

    # The front door is still alive: a healthy client streams normally.
    transport.connect(client_id=1)
    message = TimeStepMessage(client_id=1, time_step=0, payload=FIELD)
    transport.push(0, message)
    received = []
    assert wait_until(
        lambda: bool(received) or bool(received.extend(transport.poll_batches(0, timeout=0.1))),
        timeout=5.0,
    )
    assert_chunks_carry(received, [message])
    assert transport.stats.torn_batches == 1
    assert transport.stats.dropped_messages == 0


def test_tcp_protocol_violation_drops_connection(tcp_transport):
    """Garbage where a frame header should be counts one rejected frame and
    closes only the offending connection."""
    transport = tcp_transport
    raw = socket.create_connection((transport.host, transport.port), timeout=5.0)
    try:
        raw.sendall(b"GET / HTTP/1.1\r\n\r\n")  # wrong magic, full header's worth
        raw.sendall(b"\x00" * framing.FRAME_HEADER_BYTES)
    finally:
        raw.close()
    assert wait_until(lambda: transport.stats.dropped_messages == 1, timeout=5.0), \
        "protocol violation was never counted"


def test_tcp_round_trip_is_byte_identical():
    """Messages survive the socket byte-identically (every polled column
    compared by dtype and exact values), and the wire accounting counts
    exactly one header per frame on top of the packed batch."""
    transport = TcpTransport(1)
    try:
        transport.connect(client_id=2)
        sent = [
            TimeStepMessage(client_id=2, time_step=step, time_value=step * 0.1,
                            parameters=(1.0, 2.0),
                            payload=np.full(1024, step, dtype=np.float32))
            for step in range(8)
        ]
        (block,) = batch_parts(sent)  # one client, one shape: one block, one frame
        transport.push_many(0, block)

        received = []
        assert wait_until(
            lambda: sum(len(chunk) for chunk in received) >= len(sent)
            or bool(received.extend(transport.poll_batches(0, max_messages=64, timeout=0.1))),
            timeout=5.0,
        ), "messages never arrived"
        assert_chunks_carry(received, sent)
        packed = len(pack_many(sent))
        assert transport.stats.bytes_routed == framing.FRAME_HEADER_BYTES + packed
    finally:
        transport.shutdown()


def test_tcp_frame_codec_round_trip_exact_bytes():
    """The server's header parse inverts framing.encode_frame bit-exactly;
    the 16-byte header keeps the body 8-aligned, and a frame of another
    version is rejected."""
    payload = pack_many(
        [TimeStepMessage(client_id=3, time_step=step,
                         payload=np.zeros(512, dtype=np.float32))
         for step in range(4)]
    )
    frame = framing.encode_frame(payload, rank=2)
    assert framing.FRAME_HEADER_BYTES == 16
    assert len(frame) == framing.FRAME_HEADER_BYTES + len(payload)
    header = frame[:framing.FRAME_HEADER_BYTES]
    assert framing.parse_header(header) == (framing.KIND_BATCH, 2, len(payload))
    assert frame[framing.FRAME_HEADER_BYTES:] == payload
    old_version = bytearray(header)
    old_version[4] = framing.FRAME_VERSION - 1
    with pytest.raises(framing.FrameError, match="version"):
        framing.parse_header(old_version)
