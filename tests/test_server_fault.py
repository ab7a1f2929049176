"""Tests for the fault-tolerance primitives (message log, liveness monitor)."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.fault import MAX_TIME_STEP, HeartbeatMonitor, MessageLog


def register(log, client_ids, time_steps):
    """``register_many`` handed the distinct clients, as the aggregator does."""
    return log.register_many(client_ids, time_steps, np.unique(client_ids).tolist())


def is_new(log, client_id, time_step):
    """Register one key through the one way in: a 1-row ``register_many``."""
    return register(log, np.array([client_id], np.int64), np.array([time_step], np.int64)) is None


def test_message_log_deduplicates():
    log = MessageLog()
    assert is_new(log, 1, 1)
    assert is_new(log, 1, 2)
    assert not is_new(log, 1, 1)  # duplicate after client restart
    assert is_new(log, 2, 1)      # other client, same step index: not a duplicate
    assert log.duplicates_discarded == 1
    assert log.state() == {1: [1, 2], 2: [1]}


def test_heartbeat_monitor_detects_silent_clients():
    monitor = HeartbeatMonitor()
    monitor.touch(1)
    touched = time.monotonic()
    assert monitor.silence(1, now=touched + 12.0) == pytest.approx(12.0, abs=0.5)
    assert monitor.silence(2) is None  # never seen: not judged by silence


def test_heartbeat_monitor_ignores_finished_clients():
    monitor = HeartbeatMonitor()
    monitor.touch(1)
    monitor.mark_finished(1)
    assert monitor.is_finished(1)
    assert monitor.silence(1, now=time.monotonic() + 100.0) is None


def test_heartbeat_monitor_stamps_arrival_with_the_server_clock():
    """``touch`` takes no time from the client: every arrival is stamped
    with the server's own monotonic clock, so silence restarts at zero."""
    monitor = HeartbeatMonitor()
    before = time.monotonic()
    monitor.touch(3)
    first = monitor.silence(3, now=before + 60.0)
    monitor.touch(3)
    assert 0.0 <= monitor.silence(3) <= time.monotonic() - before
    assert monitor.silence(3, now=before + 60.0) <= first


# ------------------------------------------------------- columnar dedup
def test_register_many_interleaved_clients_all_new_returns_none():
    """Two concurrent clients interleave inside one merged drain: every key
    is new, so there is no mask — whatever the interleaving."""
    log = MessageLog()
    ids = np.array([3, 5, 3, 3, 5, 5, 3, 5], dtype=np.int64)
    steps = np.array([0, 0, 1, 2, 1, 2, 3, 3], dtype=np.int64)
    assert register(log, ids, steps) is None
    assert log.duplicates_discarded == 0
    assert log.state() == {3: [0, 1, 2, 3], 5: [0, 1, 2, 3]}
    assert register(log, np.empty(0, np.int64), np.empty(0, np.int64)) is None


def test_register_many_mixed_chunk_masks_only_the_replayed_client():
    """A restarted client's replay inside a mixed chunk: its already-logged
    steps are masked and counted once each, the other client's rows kept."""
    log = MessageLog()
    assert register(log, np.full(4, 1, np.int64), np.arange(4, dtype=np.int64)) is None
    ids = np.array([2, 1, 1, 2, 1, 2, 1], dtype=np.int64)  # client 1 replays 2,3 then 4,5
    steps = np.array([0, 2, 3, 1, 4, 2, 5], dtype=np.int64)
    keep = register(log, ids, steps)
    assert keep.tolist() == [True, False, False, True, True, True, True]
    assert log.duplicates_discarded == 2
    assert log.state() == {1: [0, 1, 2, 3, 4, 5], 2: [0, 1, 2]}


def test_register_many_in_chunk_duplicates_count_once_each():
    """A key repeated inside one chunk is new at its first row only, on the
    single-client path and on the mixed one."""
    log = MessageLog()
    keep = register(log, np.full(5, 9, np.int64), np.array([4, 7, 4, 4, 8], np.int64))
    assert keep.tolist() == [True, True, False, False, True]
    assert log.duplicates_discarded == 2
    ids = np.array([1, 2, 1, 2, 1], dtype=np.int64)
    steps = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    assert register(log, ids, steps).tolist() == [True, True, False, True, True]
    assert log.duplicates_discarded == 3
    # A 1-row chunk reads and writes the same log.
    assert not is_new(log, 9, 7) and is_new(log, 9, 5000) and not is_new(log, 9, 4)
    assert log.duplicates_discarded == 5
    assert log.state()[9] == [4, 7, 8, 5000]


def test_message_log_state_is_sorted_step_lists():
    """An unsorted mixed chunk reads back as each client's sorted steps, and
    a replay of a logged step is masked while a new one is kept."""
    log = MessageLog()
    register(log, np.array([4, 2, 4], np.int64), np.array([9, 1, 3], np.int64))
    assert log.state() == {4: [3, 9], 2: [1]}
    keep = register(log, np.array([4, 4], np.int64), np.array([9, 10], np.int64))
    assert keep.tolist() == [False, True]
    assert log.duplicates_discarded == 1
    assert log.state() == {4: [3, 9, 10], 2: [1]}


# --------------------------------------------------- byte map vs a set model
class SetLog:
    """Reference model: the per-client set of steps the byte map replaced."""

    def __init__(self):
        self.received = {}
        self.duplicates_discarded = 0

    def register_many(self, client_ids, time_steps):
        kept = []
        for cid, step in zip(client_ids.tolist(), time_steps.tolist(), strict=True):
            known = self.received.setdefault(cid, set())
            kept.append(step not in known)
            known.add(step)
        self.duplicates_discarded += kept.count(False)
        return np.array(kept, dtype=bool) if False in kept else None

    def state(self):
        return {cid: sorted(steps) for cid, steps in self.received.items()}


#: One call on both logs: a chunk of per-client runs or a client restart.
_runs = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40), st.booleans()), max_size=4)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("chunk"), _runs, st.sampled_from(["runs", "interleave", "reverse"])),
        st.tuples(st.just("restart"), st.integers(0, 3), st.integers(0, 5)),
    ),
    max_size=25,
)


def _chunk(cursors, runs, order):
    """Rows of one chunk: each run is its client's next ``length`` steps,
    optionally with one step repeated inside the chunk."""
    parts = []
    for cid, length, repeat in runs:
        steps = list(range(cursors.get(cid, 1), cursors.get(cid, 1) + length))
        cursors[cid] = cursors.get(cid, 1) + length
        if repeat and steps:
            steps.insert(len(steps) // 2, steps[0])
        parts.append([(cid, step) for step in steps])
    if order == "interleave":
        rows = [row for group in zip(*parts, strict=False) for row in group]
        rows += [row for part in parts for row in part[min(map(len, parts)):]]
    else:
        rows = [row for part in parts for row in part]
        if order == "reverse":
            rows.reverse()
    ids = np.array([cid for cid, _ in rows], dtype=np.int64)
    return ids, np.array([step for _, step in rows], dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(_ops)
def test_byte_map_log_agrees_with_a_set_model(ops):
    log, model, cursors = MessageLog(), SetLog(), {}
    for kind, first, second in ops:
        if kind == "chunk":
            ids, steps = _chunk(cursors, first, second)
            keep, expected = register(log, ids, steps), model.register_many(ids, steps)
            if expected is None:
                assert keep is None
            else:
                assert keep.dtype == bool and keep.tolist() == expected.tolist()
        else:  # a restart: the client replays from step 1 (or a little later)
            cursors[first] = 1 + second
        assert log.duplicates_discarded == model.duplicates_discarded
        assert log.state() == model.state()


def test_log_of_an_ingest_bound_study_stays_small():
    """16 clients x 10,000 steps in 32-row chunks: a byte per step, not a
    set entry per step (~10 MiB of Python ints)."""
    log = MessageLog()
    ids = np.empty(32, np.int64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for cid in range(16):
            ids[:] = cid
            for first in range(1, 10_001, 32):
                steps = np.arange(first, min(first + 32, 10_001), dtype=np.int64)
                assert register(log, ids[:len(steps)], steps) is None
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown <= 1 << 20, grown
    assert log.state()[15] == list(range(1, 10_001))


@pytest.mark.parametrize("bad", [-1, -(1 << 40), MAX_TIME_STEP + 1])
def test_step_outside_the_log_is_refused(bad):
    """A negative step would alias the end of a client's byte map: every
    out-of-range step raises, on the run path and on the key-by-key one."""
    log = MessageLog()
    assert is_new(log, 3, MAX_TIME_STEP)
    for steps in ([bad], [5, 6, bad], [bad, 7, 7]):
        with pytest.raises(ValueError, match=f"time step {bad}"):
            register(log, np.full(len(steps), 3, np.int64), np.array(steps, np.int64))
    assert log.state() == {3: [MAX_TIME_STEP]}
