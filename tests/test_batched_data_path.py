"""Property tests for the vectorized batched buffer path.

``get_batch`` extracts a whole batch under a single lock acquisition with one
vectorized RNG call per chunk; ``get_batch_per_sample`` loops over the one-row
``get``.  Both go through the same policy hooks, so they consume the RNG
differently but must agree on everything Algorithm 1 fixes, for all three
buffer kinds: bookkeeping counters (seen/unseen, evictions, repeated reads),
threshold blocking, drain-mode emptying and the exhaustion contract, and the
selection distribution (the per-sample textbook reference lives in
``tests/test_buffers_bookkeeping.py``).
"""

import threading

import numpy as np
import pytest

from repro.buffers import FIFOBuffer, FIROBuffer, ReservoirBuffer, make_buffer
from repro.buffers.base import SampleRecord
from repro.buffers.columns import ColumnBatch


def record(index: int) -> SampleRecord:
    return SampleRecord(
        inputs=np.array([float(index)], dtype=np.float32),
        target=np.array([float(index)], dtype=np.float32),
        source_id=index // 1000,
        time_step=index % 1000,
    )


def records(count):
    return [record(i) for i in range(count)]


def fill(buffer, count):
    for item in records(count):
        buffer.put(item)


BATCH_GETTERS = {
    "batched": lambda buf, n, **kw: buf.get_batch(n, **kw),
    "per_sample": lambda buf, n, **kw: buf.get_batch_per_sample(n, **kw),
}


# --------------------------------------------------------------- equivalence
@pytest.mark.parametrize("path", sorted(BATCH_GETTERS))
@pytest.mark.parametrize("kind", ["fifo", "firo", "reservoir"])
def test_drain_mode_yields_every_sample_exactly_once(kind, path):
    """After reception, batches empty the buffer without loss or repetition."""
    buffer = make_buffer(kind, capacity=100, threshold=0, seed=3)
    fill(buffer, 67)
    buffer.signal_reception_over()
    drawn = []
    while True:
        batch = BATCH_GETTERS[path](buffer, 10, timeout=1.0)
        if not batch:
            break
        drawn.extend(item.key() for item in batch)
    assert len(drawn) == 67
    assert len(set(drawn)) == 67
    assert len(buffer) == 0
    assert buffer.exhausted
    assert buffer.total_got == 67
    # The last batch is the short remainder, identically on both paths.
    assert len(drawn) % 10 == 7


@pytest.mark.parametrize("path", sorted(BATCH_GETTERS))
def test_fifo_batches_preserve_arrival_order(path):
    buffer = FIFOBuffer(capacity=50)
    fill(buffer, 25)
    buffer.signal_reception_over()
    drawn = []
    while True:
        batch = BATCH_GETTERS[path](buffer, 8, timeout=1.0)
        if not batch:
            break
        drawn.extend(int(item.inputs[0]) for item in batch)
    assert drawn == list(range(25))


@pytest.mark.parametrize("path", sorted(BATCH_GETTERS))
def test_firo_threshold_blocks_batches_identically(path):
    """A batch may only draw the population down to the threshold, then waits.

    Both paths draw the available ``len - threshold`` samples, wait for more
    data, and on timeout return the partial batch (never discarding drawn
    samples), leaving the population exactly at the threshold.  A timeout
    with nothing drawn raises.
    """
    buffer = FIROBuffer(capacity=50, threshold=5, seed=1)
    fill(buffer, 8)
    batch = BATCH_GETTERS[path](buffer, 10, timeout=0.05)
    assert len(batch) == 3
    assert len(buffer) == 5
    assert buffer.total_got == 3
    # Population at the threshold: a further batch times out empty-handed.
    with pytest.raises(TimeoutError):
        BATCH_GETTERS[path](buffer, 10, timeout=0.05)
    # New data re-enables extraction; reception end drains the rest.
    buffer.put(record(100))
    buffer.signal_reception_over()
    batch = BATCH_GETTERS[path](buffer, 10, timeout=1.0)
    assert len(batch) == 6


@pytest.mark.parametrize("path", sorted(BATCH_GETTERS))
def test_reservoir_threshold_blocks_batches_identically(path):
    buffer = ReservoirBuffer(capacity=50, threshold=4, seed=1)
    fill(buffer, 4)
    with pytest.raises(TimeoutError):
        BATCH_GETTERS[path](buffer, 3, timeout=0.05)
    buffer.put(record(4))
    batch = BATCH_GETTERS[path](buffer, 3, timeout=1.0)
    assert len(batch) == 3


@pytest.mark.parametrize("path", sorted(BATCH_GETTERS))
def test_reservoir_reception_bookkeeping_invariants(path):
    """Population is preserved during reception; counters match the draws.

    Every drawn-for-the-first-time sample moves unseen -> seen, and every
    other draw is a repeated read, so ``repeated_reads == total_got -
    num_seen`` on both paths.
    """
    buffer = ReservoirBuffer(capacity=100, threshold=0, seed=5)
    fill(buffer, 30)
    for _ in range(12):
        batch = BATCH_GETTERS[path](buffer, 10, timeout=1.0)
        assert len(batch) == 10
        assert len(buffer) == 30  # nothing leaves while reception is ongoing
        assert buffer.num_seen + buffer.num_unseen == 30
        assert buffer.repeated_reads == buffer.total_got - buffer.num_seen
    assert buffer.total_got == 120
    # With 120 draws over 30 samples, repetition must have occurred.
    assert buffer.repeated_reads > 0


@pytest.mark.parametrize("path", sorted(BATCH_GETTERS))
def test_reservoir_drain_mode_counts_repeated_reads_for_seen(path):
    buffer = ReservoirBuffer(capacity=60, threshold=0, seed=2)
    fill(buffer, 40)
    # Mark some samples as seen first.
    BATCH_GETTERS[path](buffer, 15, timeout=1.0)
    seen_before = buffer.num_seen
    repeated_before = buffer.repeated_reads
    buffer.signal_reception_over()
    drained = []
    while True:
        batch = BATCH_GETTERS[path](buffer, 7, timeout=1.0)
        if not batch:
            break
        drained.extend(item.key() for item in batch)
    # Drain removes each stored sample exactly once ...
    assert len(drained) == 40
    assert len(set(drained)) == 40
    assert len(buffer) == 0
    # ... and draws that hit the seen list count as repeated reads.
    assert buffer.repeated_reads == repeated_before + seen_before


def test_reservoir_put_many_evicts_only_seen_samples():
    """Bulk insertion preserves Algorithm 1's eviction rule (lines 21-26)."""
    per_sample = ReservoirBuffer(capacity=20, threshold=0, seed=9)
    batched = ReservoirBuffer(capacity=20, threshold=0, seed=9)
    for buffer in (per_sample, batched):
        fill(buffer, 20)
        while buffer.num_seen < 10:  # repeats permitting, mark 10 as seen
            buffer.get(timeout=1.0)
    assert batched.num_seen == per_sample.num_seen == 10  # one-row gets add one at most

    fresh = [record(100 + i) for i in range(8)]
    for item in fresh:
        per_sample.put(item)
    assert batched.put_many(fresh) == 8

    for buffer in (per_sample, batched):
        assert buffer.evicted_seen == 8
        assert len(buffer) == 20
        # All fresh (unseen) samples must still be present: drain and check.
        buffer.signal_reception_over()
        keys = set()
        while True:
            batch = buffer.get_batch(10, timeout=1.0)
            if not batch:
                break
            keys.update(item.key() for item in batch)
        for item in fresh:
            assert item.key() in keys


@pytest.mark.parametrize("kind", ["fifo", "firo", "reservoir"])
def test_put_many_partial_insert_on_timeout(kind):
    buffer = make_buffer(kind, capacity=5, threshold=0, seed=0)
    inserted = buffer.put_many(records(8), timeout=0.05)
    assert inserted == 5
    assert len(buffer) == 5
    assert buffer.total_put == 5


def test_put_many_blocks_until_consumer_frees_space():
    buffer = FIFOBuffer(capacity=4)
    done = threading.Event()

    def producer():
        assert buffer.put_many(records(10), timeout=5.0) == 10
        done.set()

    thread = threading.Thread(target=producer, daemon=True)
    thread.start()
    assert not done.wait(0.1)  # blocked: capacity 4 < 10
    consumed = []
    while len(consumed) < 10:
        consumed.extend(buffer.get_batch(2, timeout=2.0))
    assert done.wait(2.0)
    thread.join()
    assert [int(item.inputs[0]) for item in consumed] == list(range(10))


@pytest.mark.parametrize("kind", ["fifo", "firo", "reservoir"])
def test_put_many_matches_per_sample_counters(kind):
    one_by_one = make_buffer(kind, capacity=300, threshold=0, seed=4)
    bulk = make_buffer(kind, capacity=300, threshold=0, seed=4)
    for item in records(150):
        one_by_one.put(item)
    assert bulk.put_many(records(150)) == 150
    assert one_by_one.snapshot() == bulk.snapshot()


# ----------------------------------------------------------- columnar parity
def assert_batches_byte_identical(a: ColumnBatch, b: ColumnBatch) -> None:
    assert a.inputs.tobytes() == b.inputs.tobytes()
    assert a.targets.tobytes() == b.targets.tobytes()
    assert a.source_ids.tobytes() == b.source_ids.tobytes()
    assert a.time_steps.tobytes() == b.time_steps.tobytes()


@pytest.mark.parametrize("kind", ["fifo", "firo", "reservoir"])
def test_columnar_ingest_yields_byte_identical_batches(kind):
    """Feeding ColumnBatch chunks and feeding their record views must be
    indistinguishable: same RNG consumption, same slots, byte-identical
    batches during reception and through the drain."""
    by_columns = make_buffer(kind, capacity=64, threshold=0, seed=7)
    by_records = make_buffer(kind, capacity=64, threshold=0, seed=7)
    items = records(48)
    for start in range(0, 48, 12):
        chunk = ColumnBatch.from_records(items[start : start + 12])
        assert by_columns.put_many(chunk) == 12
        assert by_records.put_many(items[start : start + 12]) == 12
    for _ in range(4):  # reception-mode draws consume identical RNG streams
        a = by_columns.get_batch_columns(10, timeout=1.0)
        b = by_records.get_batch_columns(10, timeout=1.0)
        assert_batches_byte_identical(a, b)
    assert by_columns.snapshot() == by_records.snapshot()
    by_columns.signal_reception_over()
    by_records.signal_reception_over()
    while True:
        a = by_columns.get_batch_columns(10, timeout=1.0)
        b = by_records.get_batch_columns(10, timeout=1.0)
        assert_batches_byte_identical(a, b)
        if not len(a):
            break
    assert by_columns.snapshot() == by_records.snapshot()


def test_fifo_wraparound_preserves_columnar_arrival_order():
    """Ring-index wraparound: chunks inserted across the capacity boundary
    come back out in exact arrival order on both insert paths."""
    by_columns = FIFOBuffer(capacity=10)
    by_records = FIFOBuffer(capacity=10)
    items = records(30)
    cursor = 0
    drawn_cols, drawn_recs = [], []
    for put_count, get_count in [(10, 7), (7, 6), (6, 8), (7, 9)]:
        chunk = ColumnBatch.from_records(items[cursor : cursor + put_count])
        assert by_columns.put_many(chunk) == put_count
        assert by_records.put_many(items[cursor : cursor + put_count]) == put_count
        cursor += put_count
        a = by_columns.get_batch_columns(get_count, timeout=1.0)
        b = by_records.get_batch_columns(get_count, timeout=1.0)
        assert_batches_byte_identical(a, b)
        drawn_cols.extend(a.keys())
        drawn_recs.extend(b.keys())
    assert drawn_cols == drawn_recs == [r.key() for r in items[: len(drawn_cols)]]


def test_reservoir_columnar_eviction_matches_per_record():
    """Algorithm 1's evict-only-seen rule is pure index arithmetic now; the
    chunk insert must pick the same victims as the record insert."""
    by_columns = ReservoirBuffer(capacity=20, threshold=0, seed=9)
    by_records = ReservoirBuffer(capacity=20, threshold=0, seed=9)
    for buffer in (by_columns, by_records):
        fill(buffer, 20)
        while buffer.num_seen < 10:
            buffer.get(timeout=1.0)
    fresh = [record(100 + i) for i in range(8)]
    assert by_columns.put_many(ColumnBatch.from_records(fresh)) == 8
    assert by_records.put_many(fresh) == 8
    assert by_columns.evicted_seen == by_records.evicted_seen == 8
    assert by_columns.snapshot() == by_records.snapshot()
    for buffer in (by_columns, by_records):
        buffer.signal_reception_over()
    a = by_columns.get_batch_columns(20, timeout=1.0)
    b = by_records.get_batch_columns(20, timeout=1.0)
    assert_batches_byte_identical(a, b)
    survivors = set(a.keys())
    for item in fresh:  # unseen samples are never evicted
        assert item.key() in survivors


# -------------------------------------------------------------- distribution
def selection_frequencies(kind, path, population, batch_size, trials, seed_base):
    """Empirical per-key selection frequency of the first batch drawn."""
    counts = {record(i).key(): 0 for i in range(population)}
    for trial in range(trials):
        buffer = make_buffer(kind, capacity=population, threshold=0, seed=seed_base + trial)
        fill(buffer, population)
        batch = BATCH_GETTERS[path](buffer, batch_size, timeout=1.0)
        assert len(batch) == batch_size
        for item in batch:
            counts[item.key()] += 1
    total = batch_size * trials
    return np.array([counts[record(i).key()] for i in range(population)]) / total


@pytest.mark.parametrize("kind", ["firo", "reservoir"])
def test_batched_selection_distribution_matches_per_sample(kind):
    """Both paths select uniformly over the population (same distribution).

    With 400 trials of batch 8 over 16 samples, each key's expected selection
    share is 1/16; both paths must sit within the same tolerance band, and
    their per-key frequencies must agree closely with each other.
    """
    population, batch_size, trials = 16, 8, 400
    freq = {
        path: selection_frequencies(kind, path, population, batch_size, trials,
                                    seed_base=1000)
        for path in BATCH_GETTERS
    }
    expected = 1.0 / population
    for path, values in freq.items():
        assert values.min() > 0.5 * expected, (kind, path)
        assert values.max() < 1.6 * expected, (kind, path)
    # Cross-path agreement: same uniform distribution.
    assert np.abs(freq["batched"] - freq["per_sample"]).max() < 0.5 * expected
