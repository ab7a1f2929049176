"""Tests for the Reservoir buffer (paper Algorithm 1)."""

import threading

import numpy as np
import pytest

from repro.buffers import ReservoirBuffer


def draw_one(buffer, timeout=None):
    """Time step of a one-row draw, or None once the buffer is exhausted."""
    batch = buffer.get_batch_columns(1, timeout=timeout)
    return int(batch.time_steps[0]) if len(batch) else None


def drain_one_by_one(buffer):
    steps = []
    while (step := draw_one(buffer, timeout=0.5)) is not None:
        steps.append(step)
    return steps


def test_reservoir_counts_seen_and_unseen(rows):
    buffer = ReservoirBuffer(capacity=10, threshold=0, seed=0)
    for i in range(4):
        buffer.put_many(rows([i]))
    assert buffer.num_unseen == 4
    assert buffer.num_seen == 0
    draw_one(buffer)
    assert buffer.num_unseen == 3
    assert buffer.num_seen == 1  # freshly read samples move to the seen list
    assert len(buffer) == 4      # nothing leaves while reception is ongoing


def test_reservoir_can_repeat_samples(rows):
    """Unlike FIFO/FIRO, consumption can exceed production (sample repetition)."""
    buffer = ReservoirBuffer(capacity=10, threshold=0, seed=0)
    for i in range(3):
        buffer.put_many(rows([i]))
    reads = [draw_one(buffer) for _ in range(20)]
    assert buffer.repeated_reads > 0
    assert set(reads) == {0, 1, 2}


def test_reservoir_never_evicts_unseen_samples(rows):
    """Eviction on write only removes *seen* samples (no unseen data is lost)."""
    buffer = ReservoirBuffer(capacity=5, threshold=0, seed=0)
    for i in range(5):
        buffer.put_many(rows([i]))
    # Buffer full of unseen data: a further put must wait, and inserts nothing.
    assert buffer.put_many(rows([99]), timeout=0.05) == 0
    # Read until two samples are seen (draws repeat), then new puts evict
    # seen ones only.
    while buffer.num_seen < 2:
        assert draw_one(buffer, timeout=1.0) is not None
    assert buffer.put_many(rows([5]), timeout=1.0) == 1
    assert buffer.put_many(rows([6]), timeout=1.0) == 1
    assert buffer.evicted_seen >= 1
    assert len(buffer) <= 5
    # All unseen samples must still be retrievable eventually.
    buffer.signal_reception_over()
    remaining = set(drain_one_by_one(buffer))
    assert {5, 6} <= remaining


def test_reservoir_threshold_blocks_until_population(rows):
    buffer = ReservoirBuffer(capacity=20, threshold=4, seed=0)
    for i in range(4):
        buffer.put_many(rows([i]))
    with pytest.raises(TimeoutError):
        buffer.get_batch_columns(1, timeout=0.05)
    buffer.put_many(rows([4]))
    assert draw_one(buffer, timeout=1.0) is not None


def test_reservoir_threshold_lifted_after_reception_over(rows):
    buffer = ReservoirBuffer(capacity=20, threshold=10, seed=0)
    buffer.put_many(rows([0]))
    buffer.signal_reception_over()
    assert draw_one(buffer, timeout=1.0) == 0
    assert draw_one(buffer, timeout=0.5) is None  # drained
    assert len(buffer.get_batch_columns(1, timeout=0)) == 0  # exhausted


def test_reservoir_drains_after_reception_over(rows):
    """Once reception is over, reads remove samples until the buffer empties."""
    buffer = ReservoirBuffer(capacity=50, threshold=0, seed=3)
    for i in range(30):
        buffer.put_many(rows([i]))
    # Interleave some reads so both seen and unseen items exist at drain time.
    for _ in range(10):
        draw_one(buffer)
    buffer.signal_reception_over()
    drained = drain_one_by_one(buffer)
    assert len(drained) == 30  # 30 samples were still stored (reads kept them around)
    assert len(buffer) == 0


def test_reservoir_every_unique_sample_is_seen_at_least_once_when_slow_producer(rows):
    """With capacity >= unique samples, every sample appears in some batch."""
    buffer = ReservoirBuffer(capacity=100, threshold=0, seed=0)
    for i in range(50):
        buffer.put_many(rows([i]))
    seen = {draw_one(buffer) for _ in range(400)}
    buffer.signal_reception_over()
    seen.update(drain_one_by_one(buffer))
    assert set(range(50)) <= seen


def test_reservoir_uniformity_of_selection(rows):
    """Selections are roughly uniform over the stored population."""
    buffer = ReservoirBuffer(capacity=64, threshold=0, seed=7)
    n = 32
    for i in range(n):
        buffer.put_many(rows([i]))
    counts = np.zeros(n)
    draws = 6400
    for _ in range(draws):
        counts[draw_one(buffer)] += 1
    frequencies = counts / draws
    assert frequencies.min() > 0.5 / n
    assert frequencies.max() < 2.0 / n


def test_reservoir_put_unblocks_when_reader_consumes(rows):
    buffer = ReservoirBuffer(capacity=3, threshold=0, seed=0)
    for i in range(3):
        buffer.put_many(rows([i]))
    unblocked = threading.Event()

    def producer():
        assert buffer.put_many(rows([3]), timeout=5.0) == 1
        unblocked.set()

    thread = threading.Thread(target=producer, daemon=True)
    thread.start()
    assert not unblocked.wait(0.1)
    draw_one(buffer)  # moves one sample to 'seen', making room for the new one
    assert unblocked.wait(2.0)
    thread.join()


def test_reservoir_snapshot_fields(rows):
    buffer = ReservoirBuffer(capacity=8, threshold=2, seed=0)
    for i in range(4):
        buffer.put_many(rows([i]))
    draw_one(buffer)
    snap = buffer.snapshot()
    assert snap["num_seen"] == 1
    assert snap["num_unseen"] == 3
    assert snap["size"] == 4
    assert "evicted_seen" in snap and "repeated_reads" in snap


def test_reservoir_snapshot_is_one_consistent_view(rows):
    """``snapshot()`` reads the base and the policy fields under one lock
    acquisition: a put landing right after the lock is first released (where a
    second acquisition used to follow) cannot split ``size`` from
    ``num_seen + num_unseen``."""
    buffer = ReservoirBuffer(capacity=16, threshold=0, seed=0)
    buffer.put_many(rows(range(4)))
    draw_one(buffer, timeout=1.0)

    class PutAfterFirstRelease:
        """The buffer's lock, plus one ``put_many`` the first time it is released."""

        def __init__(self, lock):
            self.lock = lock
            self.armed = True

        def __getattr__(self, name):
            return getattr(self.lock, name)

        def __enter__(self):
            return self.lock.__enter__()

        def __exit__(self, *exc_info):
            self.lock.__exit__(*exc_info)
            if self.armed:
                self.armed = False
                buffer.put_many(rows([10, 11, 12]), timeout=1.0)

    buffer._lock = PutAfterFirstRelease(buffer._lock)
    snap = buffer.snapshot()
    assert len(buffer) == 7  # the interleaved put did land
    assert snap["size"] == snap["num_seen"] + snap["num_unseen"]
    assert snap["total_put"] == snap["size"]


def test_reservoir_deterministic_given_seed(rows):
    def run(seed):
        buffer = ReservoirBuffer(capacity=16, threshold=0, seed=seed)
        for i in range(10):
            buffer.put_many(rows([i]))
        return [draw_one(buffer) for _ in range(20)]

    assert run(5) == run(5)
    assert run(5) != run(6)
