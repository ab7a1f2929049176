"""The tcp rank channel: its byte bound and the drain's wake-up of a parked reader.

A rank channel admits a frame below ``queue_size`` frames and, unless it is
empty, only while the queued bodies fit within ``CHANNEL_BYTES``.  A front-door
reader refused by a full channel parks until the drain that frees room wakes
it; nothing polls.  Every test here bounds its own waits (threads are joined
with a timeout, then asserted on), so a lost wake-up fails in seconds instead
of hanging the suite.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.buffers.columns import ColumnBatch
from repro.parallel import tcp_transport
from repro.parallel.messages import TimeStepMessage, pack_many
from repro.parallel.tcp_transport import TcpTransport

DEADLINE = 20.0  # every wait in this module fails by then
FIELD = np.arange(64, dtype=np.float32)


def step(client_id, time_step):
    return TimeStepMessage(client_id=client_id, time_step=time_step, payload=FIELD)


#: Body bytes of one single-step frame (every frame in this module is one).
FRAME_BODY = len(pack_many([step(0, 0)]))


def wait_until(predicate, timeout=DEADLINE, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def run_thread(target, *args):
    """Start ``target`` on a thread that records any exception it raises."""
    errors = []

    def body():
        try:
            target(*args)
        except Exception as exc:  # asserted empty by joined()
            errors.append(exc)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, errors


def joined(thread, errors, timeout=DEADLINE):
    thread.join(timeout)
    assert not thread.is_alive(), "thread still blocked past its deadline"
    assert not errors, errors


def push_steps(transport, client_id, rank, count):
    """One client connection pushing ``count`` single-step frames to ``rank``."""
    transport.connect(client_id)
    for time_step in range(count):
        transport.push(rank, step(client_id, time_step), timeout=DEADLINE)
    transport._writer().reset()  # close this thread's socket: a clean EOF after the frames


def drain(transport, rank, count, timeout=DEADLINE):
    """Poll ``rank`` until ``count`` steps arrived; returns (client, step) pairs."""
    chunks, received = [], 0
    deadline = time.monotonic() + timeout
    while received < count and time.monotonic() < deadline:
        for item in transport.poll_batches(rank, timeout=0.05):
            assert isinstance(item, ColumnBatch)
            chunks.append(item)
            received += len(item)
    pairs = []
    for chunk in chunks:
        pairs.extend(zip(chunk.source_ids.tolist(), chunk.time_steps.tolist(), strict=True))
    return pairs


def arrived_in_order(pairs, client_id, count):
    return [s for c, s in pairs if c == client_id] == list(range(count))


@pytest.fixture
def three_frame_bound(monkeypatch):
    """Bound every channel to three frames' bodies."""
    monkeypatch.setattr(tcp_transport, "CHANNEL_BYTES", 3 * FRAME_BODY)


@pytest.fixture
def transport():
    transport = TcpTransport(num_server_ranks=2, max_queue_size=10_000)
    yield transport
    transport.shutdown()


def test_channel_holds_its_byte_bound_then_drains_in_order(three_frame_bound, transport):
    """With nobody draining, two connections fill rank 0 up to the byte bound
    and park; a drain then delivers every frame in order, none dropped."""
    pushers = [run_thread(push_steps, transport, client_id, 0, 8) for client_id in (1, 2)]
    for thread, errors in pushers:  # 16 small frames fit the socket buffers
        joined(thread, errors)
    assert wait_until(lambda: transport.pending(0) == 3)
    # Both readers hold a refused frame: the channel stays at the bound.
    assert wait_until(lambda: len(transport._channels[0].parked) == 2)
    time.sleep(0.1)
    assert transport.pending(0) == 3
    assert transport._channels[0].nbytes <= tcp_transport.CHANNEL_BYTES
    assert transport.stats.ring_depth_high_water == {0: 3}

    pairs = drain(transport, 0, 16)
    assert len(pairs) == 16
    assert arrived_in_order(pairs, 1, 8) and arrived_in_order(pairs, 2, 8)
    stats = transport.stats
    assert stats.dropped_messages == 0
    assert stats.ring_depth_high_water == {0: 3}
    assert transport._channels[0].nbytes == 0


def test_a_stalled_rank_does_not_stall_another_connection(three_frame_bound, transport):
    """One client fills rank 1, which nobody drains, and parks; a second
    client's frames to rank 0 are all still delivered."""
    stalled, stalled_errors = run_thread(push_steps, transport, 1, 1, 8)
    joined(stalled, stalled_errors)
    assert wait_until(lambda: len(transport._channels[1].parked) == 1)

    flowing, flowing_errors = run_thread(push_steps, transport, 2, 0, 40)
    pairs = drain(transport, 0, 40)
    joined(flowing, flowing_errors)
    assert arrived_in_order(pairs, 2, 40)
    assert transport.pending(1) == 3
    assert transport.stats.dropped_messages == 0


def test_parked_reader_ends_on_shutdown_and_counts_its_frame(three_frame_bound, transport):
    """``shutdown()`` wakes a reader parked on a full channel; it sees the
    transport closed and counts its frame dropped, and shutdown returns."""
    thread, errors = run_thread(push_steps, transport, 1, 0, 4)
    joined(thread, errors)
    assert wait_until(lambda: len(transport._channels[0].parked) == 1)
    assert transport.pending(0) == 3

    began = time.monotonic()
    closer, closer_errors = run_thread(transport.shutdown)
    joined(closer, closer_errors, timeout=10.0)
    assert time.monotonic() - began < 10.0
    assert transport.stats.dropped_messages == 1


def test_a_refusal_registers_one_wake_up_that_the_drain_fires(monkeypatch, transport):
    """The sink contract, without sockets: a refused frame's ``on_space`` is
    called exactly once, by the drain that pops a frame, after its lock."""
    monkeypatch.setattr(tcp_transport, "CHANNEL_BYTES", FRAME_BODY)
    body = pack_many([step(0, 0)])
    calls = []

    def on_space():
        # Called with the channel lock released: enqueueing here must not block.
        calls.append(transport.try_enqueue(0, (body, len(body)), lambda: None))

    assert transport.try_enqueue(0, (body, len(body)), on_space)  # empty: admitted
    assert not transport.try_enqueue(0, (body, len(body)), on_space)  # over the bound
    assert calls == []
    assert transport.poll_batches(0, max_messages=1, timeout=1.0)
    assert calls == [True]  # woken once, and the room it was woken for is there
    assert transport.poll_batches(0, max_messages=1, timeout=1.0)
    assert calls == [True]


def test_a_frame_larger_than_the_bound_enters_an_empty_channel(monkeypatch, transport):
    monkeypatch.setattr(tcp_transport, "CHANNEL_BYTES", 1)
    thread, errors = run_thread(push_steps, transport, 1, 0, 3)
    joined(thread, errors)
    pairs = drain(transport, 0, 3)
    assert arrived_in_order(pairs, 1, 3)
    assert transport.stats.ring_depth_high_water == {0: 1}


def test_every_frame_parks_and_none_is_lost_under_constant_preemption(monkeypatch, transport):
    """With the bound below one frame, a frame parks its reader whenever the
    channel still holds the one before it, until the drain wakes it.  At a
    1 µs switch interval, 10,000 frames pass: each rank has one connection and
    one draining thread, so no other traffic can cover for a lost wake-up, and
    the front door has no timer, so a lost one stalls that rank past the
    deadline.  Nothing is dropped or torn and every frame keeps its order."""
    monkeypatch.setattr(tcp_transport, "CHANNEL_BYTES", 1)
    per_rank = 5000
    received = {}

    def drain_rank(rank):
        received[rank] = drain(transport, rank, per_rank, timeout=DEADLINE)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        began = time.monotonic()
        threads = [run_thread(push_steps, transport, rank + 1, rank, per_rank) for rank in (0, 1)]
        threads += [run_thread(drain_rank, rank) for rank in (0, 1)]
        for thread, errors in threads:
            joined(thread, errors, timeout=max(1.0, DEADLINE - (time.monotonic() - began)))
        elapsed = time.monotonic() - began
    finally:
        sys.setswitchinterval(interval)
    for rank in (0, 1):
        pairs = received[rank]
        assert len(pairs) == per_rank, f"rank {rank}: {len(pairs)} frames in {elapsed:.1f} s"
        assert arrived_in_order(pairs, rank + 1, per_rank)
    stats = transport.stats
    assert stats.dropped_messages == 0
    assert stats.torn_batches == 0
    assert stats.ring_depth_high_water == {0: 1, 1: 1}
    assert elapsed < DEADLINE
