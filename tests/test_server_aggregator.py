"""Tests for the data-aggregator thread."""

import time

import numpy as np
import pytest

from repro.buffers import FIFOBuffer, ReservoirBuffer
from repro.parallel.messages import ClientFinished, ClientHello, TimeStepMessage
from repro.parallel.transport import MessageRouter
from repro.server.aggregator import DataAggregator
from repro.server.fault import HeartbeatMonitor, MessageLog


def time_step(client_id, step, size=6):
    return TimeStepMessage(
        client_id=client_id,
        time_step=step,
        time_value=step * 0.01,
        parameters=(100.0, 200.0, 300.0, 400.0, 500.0),
        payload=np.full(size, float(step), dtype=np.float32),
        sequence_number=step,
    )


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_aggregator_fills_buffer_and_signals_end():
    router = MessageRouter(1)
    buffer = FIFOBuffer(capacity=100)
    aggregator = DataAggregator(rank=0, router=router, buffer=buffer, expected_clients=2,
                                poll_timeout=0.01)
    aggregator.start()

    for client_id in range(2):
        router.push(0, ClientHello(client_id=client_id, parameters=(1.0,) * 5))
        for step in range(1, 4):
            router.push(0, time_step(client_id, step))
        router.push(0, ClientFinished(client_id=client_id, total_sent=3))

    assert wait_until(lambda: buffer.reception_over)
    aggregator.join(timeout=5.0)
    assert aggregator.stats.samples_received == 6
    assert aggregator.stats.clients_finished == {0, 1}
    assert aggregator.reception_complete
    assert len(buffer) == 6
    # Samples carry the (X, t) input and the float32 field.
    sample = buffer.get_batch_columns(1)
    assert sample.inputs.shape == (1, 6)
    assert sample.targets.dtype == np.float32


def test_aggregator_deduplicates_restarted_client_messages():
    router = MessageRouter(1)
    buffer = FIFOBuffer(capacity=100)
    log = MessageLog()
    aggregator = DataAggregator(rank=0, router=router, buffer=buffer, expected_clients=1,
                                message_log=log, poll_timeout=0.01)
    aggregator.start()

    # Original messages, then a restart resends steps 1-2 before continuing.
    for step in (1, 2):
        router.push(0, time_step(0, step))
    for step in (1, 2, 3):
        router.push(0, time_step(0, step))
    router.push(0, ClientFinished(client_id=0, total_sent=5))

    assert wait_until(lambda: buffer.reception_over)
    aggregator.join(timeout=5.0)
    assert aggregator.stats.samples_received == 3
    assert aggregator.stats.duplicates_discarded == 2
    assert log.duplicates_discarded == 2
    assert len(buffer) == 3


def test_aggregator_updates_heartbeat_monitor():
    router = MessageRouter(1)
    buffer = ReservoirBuffer(capacity=10, threshold=0)
    monitor = HeartbeatMonitor()
    aggregator = DataAggregator(rank=0, router=router, buffer=buffer, expected_clients=2,
                                heartbeat_monitor=monitor, poll_timeout=0.01)
    aggregator.start()
    try:
        before = time.monotonic()
        router.push(0, ClientHello(client_id=4, parameters=(1.0,) * 5))
        router.push(0, time_step(4, 1))
        router.push(0, ClientFinished(client_id=4, total_sent=1))
        router.push(0, time_step(5, 1))  # a client seen through its data alone
        assert wait_until(lambda: monitor.silence(5) is not None)
        assert monitor.is_finished(4) and monitor.silence(4) is None  # finished: not watched
        assert not monitor.is_finished(5)
        # Arrival is stamped on the server's clock.
        assert 0.0 <= monitor.silence(5) <= time.monotonic() - before
    finally:
        aggregator.stop()


def test_aggregator_stop_terminates_thread():
    router = MessageRouter(1)
    buffer = FIFOBuffer(capacity=10)
    aggregator = DataAggregator(rank=0, router=router, buffer=buffer, expected_clients=5,
                                poll_timeout=0.01)
    aggregator.start()
    assert aggregator.running
    aggregator.stop()
    assert wait_until(lambda: not aggregator.running)


def test_aggregator_double_start_rejected():
    router = MessageRouter(1)
    buffer = FIFOBuffer(capacity=10)
    aggregator = DataAggregator(rank=0, router=router, buffer=buffer, expected_clients=1)
    aggregator.start()
    with pytest.raises(RuntimeError):
        aggregator.start()
    aggregator.stop()
