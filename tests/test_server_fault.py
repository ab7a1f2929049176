"""Tests for the fault-tolerance primitives (message log, liveness monitor, checkpointer)."""

import time

import numpy as np
import pytest

from repro.nn import Adam, MLPConfig, build_mlp, state_dict_equal
from repro.server.checkpointing import ServerCheckpointer
from repro.server.fault import HeartbeatMonitor, MessageLog
from repro.utils.exceptions import CheckpointError


def is_new(log, client_id, time_step):
    """Register one key through the one way in: a 1-row ``register_many``."""
    return log.register_many(np.array([client_id], np.int64),
                             np.array([time_step], np.int64)) is None


def test_message_log_deduplicates():
    log = MessageLog()
    assert is_new(log, 1, 1)
    assert is_new(log, 1, 2)
    assert not is_new(log, 1, 1)  # duplicate after client restart
    assert is_new(log, 2, 1)      # other client, same step index: not a duplicate
    assert log.duplicates_discarded == 1
    assert log.state() == {1: [1, 2], 2: [1]}


def test_message_log_state_roundtrip():
    log = MessageLog()
    for step in range(5):
        assert is_new(log, 7, step)
    state = log.state()
    restored = MessageLog()
    restored.restore(state)
    assert restored.state() == {7: [0, 1, 2, 3, 4]}
    assert not is_new(restored, 7, 3)


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


def _model():
    return build_mlp(MLPConfig(in_features=3, hidden_sizes=(8,), out_features=4, seed=0))


def test_server_checkpointer_save_restore(tmp_path):
    model = _model()
    optimizer = Adam(model.parameters(), lr=1e-3)
    log = MessageLog()
    assert is_new(log, 0, 1)
    checkpointer = ServerCheckpointer(directory=tmp_path, interval_batches=10, rank=0)
    assert not checkpointer.should_checkpoint(5)
    assert checkpointer.should_checkpoint(10)
    checkpointer.save(model, optimizer, batches_trained=10, samples_trained=100, message_log=log)

    fresh_model = build_mlp(MLPConfig(in_features=3, hidden_sizes=(8,), out_features=4, seed=9))
    fresh_optimizer = Adam(fresh_model.parameters(), lr=1e-3)
    fresh_log = MessageLog()
    metadata = ServerCheckpointer(directory=tmp_path, rank=0).restore(
        fresh_model, fresh_optimizer, fresh_log
    )
    assert metadata["batches_trained"] == 10
    assert state_dict_equal(model.state_dict(), fresh_model.state_dict())
    assert fresh_log.state() == {0: [1]}
    assert not is_new(fresh_log, 0, 1)  # dedup state survived the restart


def test_server_checkpointer_prunes_old_generations(tmp_path):
    model = _model()
    checkpointer = ServerCheckpointer(directory=tmp_path, interval_batches=1, rank=0, keep_last=2)
    for generation in range(4):
        checkpointer.save(model, None, batches_trained=generation, samples_trained=0)
    archives = list(tmp_path.glob("*.npz"))
    assert len(archives) == 2


def test_server_checkpointer_restore_without_checkpoint(tmp_path):
    with pytest.raises(CheckpointError):
        ServerCheckpointer(directory=tmp_path, rank=0).restore(_model())


def test_server_checkpointer_per_rank_namespacing(tmp_path):
    model = _model()
    ServerCheckpointer(directory=tmp_path, rank=0).save(model, None, 1, 10)
    ServerCheckpointer(directory=tmp_path, rank=1).save(model, None, 2, 20)
    meta0 = ServerCheckpointer(directory=tmp_path, rank=0).restore(_model())
    meta1 = ServerCheckpointer(directory=tmp_path, rank=1).restore(_model())
    assert meta0["batches_trained"] == 1
    assert meta1["batches_trained"] == 2


# ------------------------------------------------------- columnar dedup
def test_register_many_interleaved_clients_all_new_returns_none():
    """Two concurrent clients interleave inside one merged drain: every key
    is new, so there is no mask — whatever the interleaving."""
    log = MessageLog()
    ids = np.array([3, 5, 3, 3, 5, 5, 3, 5], dtype=np.int64)
    steps = np.array([0, 0, 1, 2, 1, 2, 3, 3], dtype=np.int64)
    assert log.register_many(ids, steps) is None
    assert log.duplicates_discarded == 0
    assert log.state() == {3: [0, 1, 2, 3], 5: [0, 1, 2, 3]}
    assert log.register_many(np.empty(0, np.int64), np.empty(0, np.int64)) is None


def test_register_many_mixed_chunk_masks_only_the_replayed_client():
    """A restarted client's replay inside a mixed chunk: its already-logged
    steps are masked and counted once each, the other client's rows kept."""
    log = MessageLog()
    assert log.register_many(np.full(4, 1, np.int64), np.arange(4, dtype=np.int64)) is None
    ids = np.array([2, 1, 1, 2, 1, 2, 1], dtype=np.int64)  # client 1 replays 2,3 then 4,5
    steps = np.array([0, 2, 3, 1, 4, 2, 5], dtype=np.int64)
    keep = log.register_many(ids, steps)
    assert keep.tolist() == [True, False, False, True, True, True, True]
    assert log.duplicates_discarded == 2
    assert log.state() == {1: [0, 1, 2, 3, 4, 5], 2: [0, 1, 2]}


def test_register_many_in_chunk_duplicates_count_once_each():
    """A key repeated inside one chunk is new at its first row only, on the
    single-client path and on the mixed one."""
    log = MessageLog()
    keep = log.register_many(np.full(5, 9, np.int64), np.array([4, 7, 4, 4, 8], np.int64))
    assert keep.tolist() == [True, True, False, False, True]
    assert log.duplicates_discarded == 2
    ids = np.array([1, 2, 1, 2, 1], dtype=np.int64)
    steps = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    assert log.register_many(ids, steps).tolist() == [True, True, False, True, True]
    assert log.duplicates_discarded == 3
    # A 1-row chunk reads and writes the same log.
    assert not is_new(log, 9, 7) and is_new(log, 9, 5000) and not is_new(log, 9, 4)
    assert log.duplicates_discarded == 5
    assert log.state()[9] == [4, 7, 8, 5000]


def test_message_log_checkpoint_format_is_sorted_step_lists():
    log = MessageLog()
    log.register_many(np.array([4, 2, 4], np.int64), np.array([9, 1, 3], np.int64))
    assert log.state() == {4: [3, 9], 2: [1]}
    restored = MessageLog()
    restored.restore({4: [3, 9], 2: []})
    assert restored.state() == {4: [3, 9], 2: []}
    assert restored.duplicates_discarded == 0
    keep = restored.register_many(np.array([4, 4], np.int64), np.array([9, 10], np.int64))
    assert keep.tolist() == [False, True]
