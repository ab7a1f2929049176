"""Tests for the client/server transport layer and message types."""

import threading

import numpy as np
import pytest

from repro.client.api import ClientAPI
from repro.parallel.messages import (
    ClientFinished,
    ClientHello,
    TimeStepMessage,
    columnize,
)
from repro.parallel.transport import MessageRouter, RankChannel, RouterClosed

PARAMETERS = (100.0, 200.0, 300.0, 400.0, 500.0)


def make_message(client_id=0, step=1, seq=0, size=4):
    return TimeStepMessage(
        client_id=client_id,
        time_step=step,
        time_value=step * 0.01,
        parameters=PARAMETERS,
        payload=np.arange(size, dtype=np.float32),
        sequence_number=seq,
    )


def test_time_step_message_sample_input_appends_time():
    """The training input of a step is ``(X, t)`` in float32, as the data
    plane builds it."""
    (sample,) = columnize([make_message(step=3)])
    assert sample.inputs.shape == (1, 6)
    assert sample.inputs.dtype == np.float32
    np.testing.assert_array_equal(sample.inputs[0, :5], [100.0, 200.0, 300.0, 400.0, 500.0])
    assert sample.inputs[0, -1] == pytest.approx(0.03)


def test_time_step_message_key_and_nbytes():
    message = make_message(client_id=7, step=12, size=100)
    (sample,) = columnize([message])
    assert (sample.source_ids.tolist(), sample.time_steps.tolist()) == ([7], [12])
    assert message.nbytes() >= 400


def test_control_message_sizes():
    assert ClientHello(client_id=0, parameters=(1.0, 2.0)).nbytes() > 0
    assert ClientFinished(client_id=0).nbytes() > 0


def test_router_validation():
    with pytest.raises(ValueError):
        MessageRouter(0)
    router = MessageRouter(2)
    with pytest.raises(ValueError):
        router.push(5, make_message())
    with pytest.raises(ValueError):
        router.poll_batches(-1)
    with pytest.raises(ValueError):
        router.poll_batches(0, max_messages=0)


def connected_api(router, client_id=0):
    """A client that has announced itself (one hello per rank)."""
    api = ClientAPI(router, client_id)
    api.init_communication(PARAMETERS, num_time_steps=8, field_shape=(4,))
    return api


def send_step(api, step, size=4):
    return api.send(step, step * 0.01, PARAMETERS, np.arange(size, dtype=np.float32))


def test_round_robin_distribution_across_ranks():
    router = MessageRouter(num_server_ranks=4)
    api = connected_api(router)
    used = [send_step(api, i) for i in range(8)]
    assert used == [0, 1, 2, 3, 0, 1, 2, 3]
    assert all(router.pending(rank) == 3 for rank in range(4))  # the hello + 2 steps


def test_round_robin_start_offset_by_client_id():
    """Clients start on different ranks so the same time step spreads out."""
    router = MessageRouter(num_server_ranks=4)
    first_ranks = [send_step(connected_api(router, cid), 0) for cid in range(4)]
    assert first_ranks == [0, 1, 2, 3]


def test_poll_returns_messages_in_order():
    router = MessageRouter(2)
    for step in range(4):
        router.push(1, make_message(step=step))
    first, second = (router.poll_batches(1, max_messages=2, timeout=None) for _ in range(2))
    assert [chunk.time_steps.tolist() for chunk in first + second] == [[0, 1], [2, 3]]
    assert first[0].source_ids.tolist() == [0, 0]
    np.testing.assert_array_equal(first[0].targets[1], np.arange(4, dtype=np.float32))
    assert router.poll_batches(1, timeout=0.01) == []


def test_broadcast_reaches_every_rank():
    router = MessageRouter(3)
    connection = router.connect(5)
    connection.broadcast(ClientFinished(client_id=5, total_sent=10))
    for rank in range(3):
        (message,) = router.poll_batches(rank, timeout=None)
        assert isinstance(message, ClientFinished)
        assert message.client_id == 5


def test_router_stats_accumulate():
    router = MessageRouter(2)
    api = connected_api(router)
    for step in range(6):
        send_step(api, step, size=10)
    assert router.stats.messages_routed == 8  # two hellos and six steps
    assert router.stats.bytes_routed > 0
    assert router.stats.per_rank_messages == {0: 4, 1: 4}
    assert [router.pending(rank) for rank in range(2)] == [4, 4]


def test_closed_router_rejects_pushes():
    router = MessageRouter(1)
    api = connected_api(router)
    router.close()
    assert router.closed
    with pytest.raises(RouterClosed):
        send_step(api, 0)
    with pytest.raises(RouterClosed):
        router.connect(1)


def test_bounded_queue_blocks_then_raises_on_timeout():
    router = MessageRouter(1, max_queue_size=2)
    router.push(0, make_message(step=0))
    router.push(0, make_message(step=1))
    import queue as _queue

    with pytest.raises(_queue.Full):
        router.push(0, make_message(step=2), timeout=0.05)


def test_inproc_reports_its_deepest_backlog():
    router = MessageRouter(2)
    for step in range(5):
        router.push(0, make_message(step=step))
    assert router.stats.ring_depth_high_water == {0: 5}
    router.poll_batches(0, timeout=None)
    assert router.stats.ring_depth_high_water == {0: 5}


def blocked_put(channel, item):
    """Start a thread whose ``put`` blocks on the full ``channel``; returns
    the thread and the list its result lands in."""
    result = []
    thread = threading.Thread(target=lambda: result.append(channel.put(item, timeout=20.0)),
                              daemon=True)
    thread.start()
    thread.join(0.1)
    assert thread.is_alive() and not result, "put did not block on a full channel"
    return thread, result


def test_one_take_releases_a_blocked_put_and_a_refused_offer():
    """Both producers of one channel: a take notifies the blocked put and
    fires the refused offer's wake-up exactly once; ``wake_all`` fails the
    blocked put and fires the still-parked wake-up once."""
    channel = RankChannel(max_items=1)
    wakes = []
    assert channel.put("a", timeout=None)
    thread, result = blocked_put(channel, "b")
    assert not channel.offer("c", 1, 1 << 20, lambda: wakes.append("c"))
    assert channel.take(None) == "a"
    thread.join(20.0)
    assert not thread.is_alive() and result == [True]
    assert wakes == ["c"]
    assert channel.take(None) == "b"
    assert wakes == ["c"]  # a wake-up fires once, not at every take

    assert channel.put("d", timeout=None)
    thread, result = blocked_put(channel, "e")
    assert not channel.offer("f", 1, 1 << 20, lambda: wakes.append("f"))
    channel.wake_all()
    thread.join(20.0)
    assert not thread.is_alive() and result == [False]
    assert wakes == ["c", "f"]
    assert channel.take(None) == "d"  # queued items stay drainable
    assert wakes == ["c", "f"]
    assert channel.take(None) is None
    assert not channel.put("g", timeout=None)
