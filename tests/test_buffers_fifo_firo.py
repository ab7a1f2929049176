"""Tests for the FIFO and FIRO training buffers."""

import threading

import pytest

from repro.buffers import FIFOBuffer, FIROBuffer, make_buffer
from repro.utils.exceptions import BufferClosedError


def drain_one_by_one(buffer):
    """Time steps of one-row draws until the buffer is exhausted."""
    steps = []
    while len(batch := buffer.get_batch_columns(1, timeout=0.5)):
        steps.extend(batch.time_steps.tolist())
    return steps


def test_buffer_validation():
    with pytest.raises(ValueError):
        FIFOBuffer(capacity=0)
    with pytest.raises(ValueError):
        FIROBuffer(capacity=10, threshold=11)
    with pytest.raises(ValueError):
        FIROBuffer(capacity=10, threshold=-1)


def test_make_buffer_factory():
    assert isinstance(make_buffer("fifo", 10), FIFOBuffer)
    assert isinstance(make_buffer("firo", 10, threshold=2), FIROBuffer)
    with pytest.raises(KeyError):
        make_buffer("ring", 10)


def test_fifo_preserves_order(rows):
    buffer = FIFOBuffer(capacity=10)
    for i in range(5):
        buffer.put_many(rows([i]))
    order = [buffer.get_batch_columns(1).inputs[0, 0] for _ in range(5)]
    assert order == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_fifo_each_sample_seen_once(rows):
    buffer = FIFOBuffer(capacity=100)
    for i in range(30):
        buffer.put_many(rows([i]))
    buffer.signal_reception_over()
    seen = drain_one_by_one(buffer)
    assert sorted(seen) == list(range(30))
    assert len(buffer.get_batch_columns(1, timeout=0)) == 0  # exhausted


def test_fifo_try_put_respects_capacity(rows):
    """The non-blocking put (``timeout=0``) inserts nothing into a full buffer."""
    buffer = FIFOBuffer(capacity=2)
    assert buffer.put_many(rows([0]), timeout=0) == 1
    assert buffer.put_many(rows([1]), timeout=0) == 1
    assert buffer.put_many(rows([2]), timeout=0) == 0
    buffer.get_batch_columns(1)
    assert buffer.put_many(rows([2]), timeout=0) == 1


def test_fifo_put_blocks_until_space(rows):
    """A blocked producer resumes when the consumer frees a slot (back-pressure)."""
    buffer = FIFOBuffer(capacity=1)
    buffer.put_many(rows([0]))
    done = threading.Event()

    def producer():
        assert buffer.put_many(rows([1]), timeout=5.0) == 1
        done.set()

    thread = threading.Thread(target=producer, daemon=True)
    thread.start()
    assert not done.wait(0.1)
    assert len(buffer.get_batch_columns(1)) == 1
    assert done.wait(2.0)
    thread.join()


def test_fifo_get_timeout():
    buffer = FIFOBuffer(capacity=2)
    with pytest.raises(TimeoutError):
        buffer.get_batch_columns(1, timeout=0.05)


def test_get_batch_partial_when_exhausted(rows):
    buffer = FIFOBuffer(capacity=10)
    buffer.put_many(rows(range(7)))
    buffer.signal_reception_over()
    assert len(buffer.get_batch_columns(5)) == 5
    assert len(buffer.get_batch_columns(5)) == 2  # only two remained


def test_get_returns_none_when_exhausted_and_empty():
    """An exhausted buffer answers a draw with an empty batch, never a wait."""
    buffer = FIFOBuffer(capacity=4)
    buffer.signal_reception_over()
    assert len(buffer.get_batch_columns(1, timeout=1.0)) == 0


def test_closed_buffer_raises_on_put_and_returns_none_on_get(rows):
    buffer = FIFOBuffer(capacity=4)
    buffer.put_many(rows([0]))
    buffer.close()
    with pytest.raises(BufferClosedError):
        buffer.put_many(rows([1]))
    assert len(buffer.get_batch_columns(1, timeout=0.5)) == 0


def test_close_unblocks_waiting_consumer():
    buffer = FIFOBuffer(capacity=4)
    results = []

    def consumer():
        results.append(len(buffer.get_batch_columns(1, timeout=5.0)))

    thread = threading.Thread(target=consumer, daemon=True)
    thread.start()
    buffer.close()
    thread.join(timeout=2.0)
    assert results == [0]


def test_firo_threshold_blocks_reads(rows):
    buffer = FIROBuffer(capacity=20, threshold=5, seed=0)
    for i in range(5):
        buffer.put_many(rows([i]))
    # Population equals the threshold: reads must block.
    with pytest.raises(TimeoutError):
        buffer.get_batch_columns(1, timeout=0.05)
    buffer.put_many(rows([5]))
    assert len(buffer.get_batch_columns(1, timeout=1.0)) == 1


def test_firo_threshold_released_at_end_of_reception(rows):
    buffer = FIROBuffer(capacity=20, threshold=5, seed=0)
    for i in range(3):
        buffer.put_many(rows([i]))
    buffer.signal_reception_over()
    assert sorted(drain_one_by_one(buffer)) == [0, 1, 2]
    assert len(buffer.get_batch_columns(1, timeout=0)) == 0  # exhausted


def test_firo_yields_each_sample_exactly_once(rows):
    buffer = FIROBuffer(capacity=50, threshold=0, seed=1)
    for i in range(40):
        buffer.put_many(rows([i]))
    buffer.signal_reception_over()
    assert sorted(drain_one_by_one(buffer)) == list(range(40))


def test_firo_randomizes_order(rows):
    buffer = FIROBuffer(capacity=100, threshold=0, seed=2)
    for i in range(60):
        buffer.put_many(rows([i]))
    buffer.signal_reception_over()
    order = drain_one_by_one(buffer)
    assert order != sorted(order)


def test_snapshot_counters(rows):
    buffer = FIROBuffer(capacity=10, threshold=2, seed=0)
    for i in range(5):
        buffer.put_many(rows([i]))
    buffer.get_batch_columns(1)
    snap = buffer.snapshot()
    assert snap["size"] == 4
    assert snap["capacity"] == 10
    assert snap["threshold"] == 2
    assert snap["total_put"] == 5
    assert snap["total_got"] == 1
    assert not snap["reception_over"]
