"""Tests for the client/server transport layer and message types."""

import numpy as np
import pytest

from repro.parallel.messages import (
    ClientFinished,
    ClientHello,
    TimeStepMessage,
    columnize,
)
from repro.parallel.transport import MessageRouter, RouterClosed


def make_message(client_id=0, step=1, seq=0, size=4):
    return TimeStepMessage(
        client_id=client_id,
        time_step=step,
        time_value=step * 0.01,
        parameters=(100.0, 200.0, 300.0, 400.0, 500.0),
        payload=np.arange(size, dtype=np.float32),
        sequence_number=seq,
    )


def test_time_step_message_sample_input_appends_time():
    """The training input of a step is ``(X, t)`` in float64, as the data
    plane builds it."""
    (sample,) = columnize([make_message(step=3)])
    assert sample.inputs.shape == (1, 6)
    assert sample.inputs.dtype == np.float64
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


def test_round_robin_distribution_across_ranks():
    router = MessageRouter(num_server_ranks=4)
    connection = router.connect(client_id=0)
    used = [connection.send_round_robin(make_message(step=i)) for i in range(8)]
    assert used == [0, 1, 2, 3, 0, 1, 2, 3]
    assert all(router.pending(rank) == 2 for rank in range(4))


def test_round_robin_start_offset_by_client_id():
    """Clients start on different ranks so the same time step spreads out."""
    router = MessageRouter(num_server_ranks=4)
    first_ranks = [
        router.connect(client_id=cid).send_round_robin(make_message(client_id=cid))
        for cid in range(4)
    ]
    assert first_ranks == [0, 1, 2, 3]


def test_poll_returns_messages_in_order():
    router = MessageRouter(2)
    connection = router.connect(0)
    for step in range(4):
        connection.send_to(1, make_message(step=step))
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
    connection = router.connect(0)
    for step in range(6):
        connection.send_round_robin(make_message(step=step, size=10))
    assert router.stats.messages_routed == 6
    assert router.stats.bytes_routed > 0
    assert router.stats.per_rank_messages == {0: 3, 1: 3}
    assert router.total_pending() == 6


def test_closed_router_rejects_pushes():
    router = MessageRouter(1)
    connection = router.connect(0)
    router.close()
    assert router.closed
    with pytest.raises(RouterClosed):
        connection.send_round_robin(make_message())
    with pytest.raises(RouterClosed):
        router.connect(1)


def test_bounded_queue_blocks_then_raises_on_timeout():
    router = MessageRouter(1, max_queue_size=2)
    connection = router.connect(0)
    connection.send_to(0, make_message(step=0))
    connection.send_to(0, make_message(step=1))
    import queue as _queue

    with pytest.raises(_queue.Full):
        router.push(0, make_message(step=2), timeout=0.05)
