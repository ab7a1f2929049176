"""Property tests for the vectorized batched buffer path.

``get_batch_columns(n)`` extracts a whole batch under a single lock
acquisition with one vectorized RNG call per chunk; ``n`` calls of
``get_batch_columns(1)`` draw the same batch one row at a time.  Both go
through the same policy hooks, so they consume the RNG differently but must
agree on everything Algorithm 1 fixes, for all three buffer kinds:
bookkeeping counters (seen/unseen, evictions, repeated reads), threshold
blocking, drain-mode emptying and the exhaustion contract, and the selection
distribution (the per-sample textbook reference lives in
``tests/test_buffers_bookkeeping.py``).  A sample is named by its time step
(see the ``rows`` fixture).
"""

import threading

import numpy as np
import pytest

from repro.buffers import FIFOBuffer, FIROBuffer, ReservoirBuffer, make_buffer


def get_per_sample(buffer, count, timeout=None):
    """``count`` one-row draws, with the whole-batch call's contract: stop
    early once exhausted, and on a timeout keep what was drawn (raising only
    when nothing was)."""
    pieces = []
    for _ in range(count):
        try:
            piece = buffer.get_batch_columns(1, timeout=timeout)
        except TimeoutError:
            if pieces:
                break
            raise
        if not len(piece):
            break
        pieces.append(piece.time_steps)
    return np.concatenate(pieces).tolist() if pieces else []


BATCH_GETTERS = {
    "batched": lambda buf, n, **kw: buf.get_batch_columns(n, **kw).time_steps.tolist(),
    "per_sample": get_per_sample,
}


def fill_one_by_one(buffer, batch):
    for row in range(len(batch)):
        assert buffer.put_many(batch[row : row + 1]) == 1


# --------------------------------------------------------------- equivalence
@pytest.mark.parametrize("path", sorted(BATCH_GETTERS))
@pytest.mark.parametrize("kind", ["fifo", "firo", "reservoir"])
def test_drain_mode_yields_every_sample_exactly_once(kind, path, rows):
    """After reception, batches empty the buffer without loss or repetition."""
    buffer = make_buffer(kind, capacity=100, threshold=0, seed=3)
    buffer.put_many(rows(range(67)))
    buffer.signal_reception_over()
    drawn = []
    while True:
        batch = BATCH_GETTERS[path](buffer, 10, timeout=1.0)
        if not batch:
            break
        drawn.extend(batch)
    assert sorted(drawn) == list(range(67))
    assert len(buffer) == 0
    assert len(buffer.get_batch_columns(1, timeout=0)) == 0  # exhausted
    assert buffer.total_got == 67
    # The last batch is the short remainder, identically on both paths.
    assert len(drawn) % 10 == 7


@pytest.mark.parametrize("path", sorted(BATCH_GETTERS))
def test_fifo_batches_preserve_arrival_order(path, rows):
    buffer = FIFOBuffer(capacity=50)
    buffer.put_many(rows(range(25)))
    buffer.signal_reception_over()
    drawn = []
    while True:
        batch = BATCH_GETTERS[path](buffer, 8, timeout=1.0)
        if not batch:
            break
        drawn.extend(batch)
    assert drawn == list(range(25))


@pytest.mark.parametrize("path", sorted(BATCH_GETTERS))
def test_firo_threshold_blocks_batches_identically(path, rows):
    """A batch may only draw the population down to the threshold, then waits.

    Both paths draw the available ``len - threshold`` samples, wait for more
    data, and on timeout return the partial batch (never discarding drawn
    samples), leaving the population exactly at the threshold.  A timeout
    with nothing drawn raises.
    """
    buffer = FIROBuffer(capacity=50, threshold=5, seed=1)
    buffer.put_many(rows(range(8)))
    batch = BATCH_GETTERS[path](buffer, 10, timeout=0.05)
    assert len(batch) == 3
    assert len(buffer) == 5
    assert buffer.total_got == 3
    # Population at the threshold: a further batch times out empty-handed.
    with pytest.raises(TimeoutError):
        BATCH_GETTERS[path](buffer, 10, timeout=0.05)
    # New data re-enables extraction; reception end drains the rest.
    buffer.put_many(rows([100]))
    buffer.signal_reception_over()
    batch = BATCH_GETTERS[path](buffer, 10, timeout=1.0)
    assert len(batch) == 6


@pytest.mark.parametrize("path", sorted(BATCH_GETTERS))
def test_reservoir_threshold_blocks_batches_identically(path, rows):
    buffer = ReservoirBuffer(capacity=50, threshold=4, seed=1)
    buffer.put_many(rows(range(4)))
    with pytest.raises(TimeoutError):
        BATCH_GETTERS[path](buffer, 3, timeout=0.05)
    buffer.put_many(rows([4]))
    batch = BATCH_GETTERS[path](buffer, 3, timeout=1.0)
    assert len(batch) == 3


@pytest.mark.parametrize("path", sorted(BATCH_GETTERS))
def test_reservoir_reception_bookkeeping_invariants(path, rows):
    """Population is preserved during reception; counters match the draws.

    Every drawn-for-the-first-time sample moves unseen -> seen, and every
    other draw is a repeated read, so ``repeated_reads == total_got -
    num_seen`` on both paths.
    """
    buffer = ReservoirBuffer(capacity=100, threshold=0, seed=5)
    buffer.put_many(rows(range(30)))
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
def test_reservoir_drain_mode_counts_repeated_reads_for_seen(path, rows):
    buffer = ReservoirBuffer(capacity=60, threshold=0, seed=2)
    buffer.put_many(rows(range(40)))
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
        drained.extend(batch)
    # Drain removes each stored sample exactly once ...
    assert sorted(drained) == list(range(40))
    assert len(buffer) == 0
    # ... and draws that hit the seen list count as repeated reads.
    assert buffer.repeated_reads == repeated_before + seen_before


def test_reservoir_put_many_evicts_only_seen_samples(rows):
    """Bulk and one-row insertion both keep Algorithm 1's eviction rule
    (lines 21-26): one seen victim per insert beyond capacity, never an
    unseen sample."""
    one_by_one = ReservoirBuffer(capacity=20, threshold=0, seed=9)
    batched = ReservoirBuffer(capacity=20, threshold=0, seed=9)
    for buffer in (one_by_one, batched):
        buffer.put_many(rows(range(20)))
        while buffer.num_seen < 10:  # repeats permitting, mark 10 as seen
            buffer.get_batch_columns(1, timeout=1.0)
    assert batched.num_seen == one_by_one.num_seen == 10  # one-row draws add one at most

    fresh = rows(range(100, 108))
    fill_one_by_one(one_by_one, fresh)
    assert batched.put_many(fresh) == 8

    for buffer in (one_by_one, batched):
        assert buffer.evicted_seen == 8
        assert len(buffer) == 20
        # All fresh (unseen) samples must still be present: drain and check.
        buffer.signal_reception_over()
        drained = buffer.get_batch_columns(20, timeout=1.0).time_steps.tolist()
        assert set(range(100, 108)) <= set(drained)


@pytest.mark.parametrize("kind", ["fifo", "firo", "reservoir"])
def test_put_many_partial_insert_on_timeout(kind, rows):
    buffer = make_buffer(kind, capacity=5, threshold=0, seed=0)
    inserted = buffer.put_many(rows(range(8)), timeout=0.05)
    assert inserted == 5
    assert len(buffer) == 5
    assert buffer.total_put == 5
    # Full (the Reservoir: full of unseen samples): the non-blocking put
    # inserts nothing and leaves the policy state as it was.
    before = buffer.snapshot()
    assert buffer.put_many(rows([8]), timeout=0) == 0
    assert buffer.snapshot() == before


@pytest.mark.parametrize("kind", ["fifo", "firo", "reservoir"])
def test_non_blocking_draw_raises_below_threshold_and_is_empty_once_exhausted(kind, rows):
    buffer = make_buffer(kind, capacity=8, threshold=3, seed=0)
    buffer.put_many(rows(range(buffer.threshold)))  # FIFO: threshold 0, nothing stored
    before = buffer.snapshot()
    with pytest.raises(TimeoutError):
        buffer.get_batch_columns(2, timeout=0)
    assert buffer.snapshot() == before
    buffer.signal_reception_over()
    assert len(buffer.get_batch_columns(8, timeout=0)) == buffer.threshold
    assert len(buffer.get_batch_columns(1, timeout=0)) == 0  # exhausted
    assert len(buffer.get_batch_columns(2, timeout=0)) == 0


def test_put_many_blocks_until_consumer_frees_space(rows):
    buffer = FIFOBuffer(capacity=4)
    done = threading.Event()

    def producer():
        assert buffer.put_many(rows(range(10)), timeout=5.0) == 10
        done.set()

    thread = threading.Thread(target=producer, daemon=True)
    thread.start()
    assert not done.wait(0.1)  # blocked: capacity 4 < 10
    consumed = []
    while len(consumed) < 10:
        consumed.extend(buffer.get_batch_columns(2, timeout=2.0).inputs[:, 0].tolist())
    assert done.wait(2.0)
    thread.join()
    assert consumed == list(range(10))


@pytest.mark.parametrize("kind", ["fifo", "firo", "reservoir"])
def test_put_many_matches_per_sample_counters(kind, rows):
    """150 one-row puts and one 150-row put leave the same policy state."""
    one_by_one = make_buffer(kind, capacity=300, threshold=0, seed=4)
    bulk = make_buffer(kind, capacity=300, threshold=0, seed=4)
    fill_one_by_one(one_by_one, rows(range(150)))
    assert bulk.put_many(rows(range(150))) == 150
    assert one_by_one.snapshot() == bulk.snapshot()


def test_fifo_wraparound_preserves_columnar_arrival_order(rows):
    """Ring-index wraparound: chunks inserted across the capacity boundary
    come back out in exact arrival order, every column of a row together."""
    buffer = FIFOBuffer(capacity=10)
    cursor = 0
    drawn = []
    for put_count, get_count in [(10, 7), (7, 6), (6, 8), (7, 9)]:
        assert buffer.put_many(rows(range(cursor, cursor + put_count))) == put_count
        cursor += put_count
        batch = buffer.get_batch_columns(get_count, timeout=1.0)
        np.testing.assert_array_equal(batch.inputs[:, 0], batch.time_steps)
        np.testing.assert_array_equal(batch.targets[:, 0], batch.time_steps)
        drawn.extend(batch.time_steps.tolist())
    assert drawn == list(range(len(drawn)))


# -------------------------------------------------------------- distribution
def selection_frequencies(kind, path, population, batch_size, trials, seed_base, rows):
    """Empirical per-sample selection frequency of the first batch drawn."""
    counts = np.zeros(population)
    for trial in range(trials):
        buffer = make_buffer(kind, capacity=population, threshold=0, seed=seed_base + trial)
        buffer.put_many(rows(range(population)))
        batch = BATCH_GETTERS[path](buffer, batch_size, timeout=1.0)
        assert len(batch) == batch_size
        np.add.at(counts, batch, 1)
    return counts / (batch_size * trials)


@pytest.mark.parametrize("kind", ["firo", "reservoir"])
def test_batched_selection_distribution_matches_per_sample(kind, rows):
    """Both paths select uniformly over the population (same distribution).

    With 400 trials of batch 8 over 16 samples, each sample's expected
    selection share is 1/16; both paths must sit within the same tolerance
    band, and their per-sample frequencies must agree closely with each other.
    """
    population, batch_size, trials = 16, 8, 400
    freq = {
        path: selection_frequencies(kind, path, population, batch_size, trials,
                                    seed_base=1000, rows=rows)
        for path in BATCH_GETTERS
    }
    expected = 1.0 / population
    for path, values in freq.items():
        assert values.min() > 0.5 * expected, (kind, path)
        assert values.max() < 1.6 * expected, (kind, path)
    # Cross-path agreement: same uniform distribution.
    assert np.abs(freq["batched"] - freq["per_sample"]).max() < 0.5 * expected
