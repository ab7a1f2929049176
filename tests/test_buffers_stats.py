"""Tests for occurrence tracking and residency-time analysis."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.buffers.stats import (
    OccurrenceTracker,
    expected_residency_time,
    measure_residency_times,
)


def test_occurrence_tracker_counts():
    tracker = OccurrenceTracker()
    tracker.record_columns(np.array([7, 7]), np.array([1, 1]))
    tracker.record_columns(np.array([8, 7]), np.array([2, 2]))  # (7, 2): known id, new step
    # (7, 1) seen twice, (8, 2) and (7, 2) once each
    assert tracker.histogram() == {1: 2, 2: 1}


def test_occurrence_tracker_histogram():
    tracker = OccurrenceTracker()
    tracker.record_columns(np.array([1, 2, 1, 3, 1]), np.zeros(5, dtype=np.int64))
    histogram = tracker.histogram()
    # (1, 0) seen 3 times, (2, 0) and (3, 0) once each -> {1: 2, 3: 1}
    assert histogram == {1: 2, 3: 1}


def test_occurrence_tracker_columns_match_a_counter_across_folds(monkeypatch):
    """The columnar fold is exact: the same histogram as hashing every key,
    whatever the interleaving of records, reads and size-triggered folds, and
    for int64 values no float could tell apart."""
    monkeypatch.setattr(OccurrenceTracker, "_FOLD_AT", 64)  # fold many times
    rng = np.random.default_rng(0)
    big = 2**62
    tracker = OccurrenceTracker()
    reference = Counter()

    def expected_histogram():
        return dict(Counter(reference.values()))

    for batch in range(200):
        ids = rng.integers(-2, 3, size=10) + np.where(rng.random(10) < 0.3, big, 0)
        steps = rng.integers(0, 6, size=10) + np.where(rng.random(10) < 0.3, big, 0)
        tracker.record_columns(ids, steps)
        reference.update(zip(ids.tolist(), steps.tolist()))
        if batch % 37 == 0:  # reads fold too, and recording continues after
            assert tracker.histogram() == expected_histogram()
    assert sum(reference.values()) == 2000
    assert tracker.histogram() == expected_histogram()
    # Keys that differ only far above float precision stay apart.
    assert len(reference) > len({(float(i), float(s)) for i, s in reference})


def test_occurrence_tracker_pending_block_is_bounded(monkeypatch):
    """Recording the same few keys forever does not grow the tracker."""
    monkeypatch.setattr(OccurrenceTracker, "_FOLD_AT", 256)
    tracker = OccurrenceTracker()
    ids = np.zeros(100, dtype=np.int64)
    steps = np.arange(100, dtype=np.int64)
    for _ in range(50):
        tracker.record_columns(ids, steps)
    assert tracker._pending.shape[1] <= 1024
    assert tracker.histogram() == {50: 100}


def test_occurrence_tracker_folds_in_place():
    """Folding a drain's worth of keys (160,000 distinct rows, recorded in
    batches of 100) allocates little beyond the folded keys and counts
    (3.84 MB): the pending block is sorted in place, without concatenated
    copies or a vector of ones."""
    keys = np.random.default_rng(1).permutation(160_000)
    tracker = OccurrenceTracker()
    for start in range(0, len(keys), 100):
        chunk = keys[start : start + 100]
        tracker.record_columns(chunk // 100, chunk % 100)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracker._fold()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert tracker._counts.size == len(keys)
    assert peak <= 6_000_000, f"folding peaked at {peak / 1e6:.1f} MB"
    assert tracker.histogram() == {1: len(keys)}


def test_occurrence_tracker_empty():
    tracker = OccurrenceTracker()
    assert tracker.histogram() == {}


def test_expected_residency_time_formula():
    """Appendix A: E[residency] = n - 1."""
    assert expected_residency_time(10) == 9.0
    assert expected_residency_time(6000) == 5999.0
    with pytest.raises(ValueError):
        expected_residency_time(0)


@pytest.mark.parametrize("capacity", [8, 32, 128])
def test_measured_residency_matches_appendix_a(capacity):
    residencies = measure_residency_times(capacity, num_insertions=capacity * 400, seed=1)
    assert residencies.size > 0
    measured = residencies.mean()
    expected = expected_residency_time(capacity)
    # Monte-Carlo estimate: allow ~10% relative tolerance.
    assert measured == pytest.approx(expected, rel=0.10)


def test_measured_residency_geometric_distribution_shape():
    """The residency distribution is geometric with parameter 1/n."""
    capacity = 16
    residencies = measure_residency_times(capacity, num_insertions=capacity * 2000, seed=2)
    p_zero = np.mean(residencies == 0)
    assert p_zero == pytest.approx(1.0 / capacity, rel=0.2)


def test_measure_residency_validation():
    with pytest.raises(ValueError):
        measure_residency_times(0, 10)
    with pytest.raises(ValueError):
        measure_residency_times(10, 0)
