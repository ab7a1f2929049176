"""Tests for the Reservoir buffer (paper Algorithm 1)."""

import threading

import numpy as np
import pytest

from repro.buffers import ReservoirBuffer
from repro.buffers.base import SampleRecord


def record(index: int) -> SampleRecord:
    return SampleRecord(
        inputs=np.array([float(index)], dtype=np.float32),
        target=np.array([float(index)], dtype=np.float32),
        source_id=index // 100,
        time_step=index % 100,
    )


def test_reservoir_counts_seen_and_unseen():
    buffer = ReservoirBuffer(capacity=10, threshold=0, seed=0)
    for i in range(4):
        buffer.put(record(i))
    assert buffer.num_unseen == 4
    assert buffer.num_seen == 0
    buffer.get()
    assert buffer.num_unseen == 3
    assert buffer.num_seen == 1  # freshly read samples move to the seen list
    assert len(buffer) == 4      # nothing leaves while reception is ongoing


def test_reservoir_can_repeat_samples():
    """Unlike FIFO/FIRO, consumption can exceed production (sample repetition)."""
    buffer = ReservoirBuffer(capacity=10, threshold=0, seed=0)
    for i in range(3):
        buffer.put(record(i))
    reads = [buffer.get() for _ in range(20)]
    assert all(item is not None for item in reads)
    assert buffer.repeated_reads > 0
    keys = {item.key() for item in reads}
    assert keys == {record(i).key() for i in range(3)}


def test_reservoir_never_evicts_unseen_samples():
    """Eviction on write only removes *seen* samples (no unseen data is lost)."""
    buffer = ReservoirBuffer(capacity=5, threshold=0, seed=0)
    for i in range(5):
        buffer.put(record(i))
    # Buffer full of unseen data: a further put must block (try via timeout).
    with pytest.raises(TimeoutError):
        buffer.put(record(99), timeout=0.05)
    # Read until two samples are seen (draws repeat), then new puts evict
    # seen ones only.
    while buffer.num_seen < 2:
        assert buffer.get(timeout=1.0) is not None
    buffer.put(record(5), timeout=1.0)
    buffer.put(record(6), timeout=1.0)
    assert buffer.evicted_seen >= 1
    assert len(buffer) <= 5
    # All unseen keys must still be retrievable eventually.
    buffer.signal_reception_over()
    remaining_keys = set()
    while True:
        item = buffer.get(timeout=0.5)
        if item is None:
            break
        remaining_keys.add(item.key())
    for fresh in (5, 6):
        assert record(fresh).key() in remaining_keys


def test_reservoir_threshold_blocks_until_population():
    buffer = ReservoirBuffer(capacity=20, threshold=4, seed=0)
    for i in range(4):
        buffer.put(record(i))
    with pytest.raises(TimeoutError):
        buffer.get(timeout=0.05)
    buffer.put(record(4))
    assert buffer.get(timeout=1.0) is not None


def test_reservoir_threshold_lifted_after_reception_over():
    buffer = ReservoirBuffer(capacity=20, threshold=10, seed=0)
    buffer.put(record(0))
    buffer.signal_reception_over()
    assert buffer.get(timeout=1.0) is not None
    assert buffer.get(timeout=0.5) is None  # drained
    assert buffer.exhausted


def test_reservoir_drains_after_reception_over():
    """Once reception is over, reads remove samples until the buffer empties."""
    buffer = ReservoirBuffer(capacity=50, threshold=0, seed=3)
    for i in range(30):
        buffer.put(record(i))
    # Interleave some reads so both seen and unseen items exist at drain time.
    for _ in range(10):
        buffer.get()
    buffer.signal_reception_over()
    drained = 0
    while True:
        item = buffer.get(timeout=0.5)
        if item is None:
            break
        drained += 1
    assert drained == 30  # 30 samples were still stored (reads kept them around)
    assert len(buffer) == 0


def test_reservoir_every_unique_sample_is_seen_at_least_once_when_slow_producer():
    """With capacity >= unique samples, every sample appears in some batch."""
    buffer = ReservoirBuffer(capacity=100, threshold=0, seed=0)
    expected = set()
    for i in range(50):
        buffer.put(record(i))
        expected.add(record(i).key())
    seen_keys = set()
    for _ in range(400):
        seen_keys.add(buffer.get().key())
    buffer.signal_reception_over()
    while True:
        item = buffer.get(timeout=0.2)
        if item is None:
            break
        seen_keys.add(item.key())
    assert expected.issubset(seen_keys)


def test_reservoir_uniformity_of_selection():
    """Selections are roughly uniform over the stored population."""
    buffer = ReservoirBuffer(capacity=64, threshold=0, seed=7)
    n = 32
    for i in range(n):
        buffer.put(record(i))
    counts = {record(i).key(): 0 for i in range(n)}
    draws = 6400
    for _ in range(draws):
        counts[buffer.get().key()] += 1
    frequencies = np.array(list(counts.values())) / draws
    assert frequencies.min() > 0.5 / n
    assert frequencies.max() < 2.0 / n


def test_reservoir_sample_without_replacement():
    buffer = ReservoirBuffer(capacity=20, threshold=0, seed=0)
    assert buffer.sample_without_replacement(4) is None  # not enough samples yet
    for i in range(10):
        buffer.put(record(i))
    batch = buffer.sample_without_replacement(6)
    assert batch is not None
    keys = [item.key() for item in batch]
    assert len(keys) == len(set(keys)) == 6
    with pytest.raises(ValueError):
        buffer.sample_without_replacement(0)


def test_reservoir_put_unblocks_when_reader_consumes():
    buffer = ReservoirBuffer(capacity=3, threshold=0, seed=0)
    for i in range(3):
        buffer.put(record(i))
    unblocked = threading.Event()

    def producer():
        buffer.put(record(3), timeout=5.0)
        unblocked.set()

    thread = threading.Thread(target=producer, daemon=True)
    thread.start()
    assert not unblocked.wait(0.1)
    buffer.get()  # moves one sample to 'seen', making room for the new one
    assert unblocked.wait(2.0)
    thread.join()


def test_reservoir_snapshot_fields():
    buffer = ReservoirBuffer(capacity=8, threshold=2, seed=0)
    for i in range(4):
        buffer.put(record(i))
    buffer.get()
    snap = buffer.snapshot()
    assert snap["num_seen"] == 1
    assert snap["num_unseen"] == 3
    assert snap["size"] == 4
    assert "evicted_seen" in snap and "repeated_reads" in snap


def test_reservoir_snapshot_is_one_consistent_view():
    """``snapshot()`` reads the base and the policy fields under one lock
    acquisition: a put landing right after the lock is first released (where a
    second acquisition used to follow) cannot split ``size`` from
    ``num_seen + num_unseen``."""
    buffer = ReservoirBuffer(capacity=16, threshold=0, seed=0)
    for i in range(4):
        buffer.put(record(i))
    buffer.get(timeout=1.0)

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
                buffer.put_many([record(10), record(11), record(12)], timeout=1.0)

    buffer._lock = PutAfterFirstRelease(buffer._lock)
    snap = buffer.snapshot()
    assert len(buffer) == 7  # the interleaved put did land
    assert snap["size"] == snap["num_seen"] + snap["num_unseen"]
    assert snap["total_put"] == snap["size"]


def test_reservoir_deterministic_given_seed():
    def run(seed):
        buffer = ReservoirBuffer(capacity=16, threshold=0, seed=seed)
        for i in range(10):
            buffer.put(record(i))
        return [buffer.get().key() for _ in range(20)]

    assert run(5) == run(5)
    assert run(5) != run(6)
