"""Tests for the fault-tolerance primitives (message log, heartbeats, checkpointer)."""

import numpy as np
import pytest

from repro.nn import Adam, MLPConfig, build_mlp, state_dict_equal
from repro.server.checkpointing import ServerCheckpointer
from repro.server.fault import HeartbeatMonitor, MessageLog
from repro.utils.exceptions import CheckpointError


def test_message_log_deduplicates():
    log = MessageLog()
    assert log.register(1, 1)
    assert log.register(1, 2)
    assert not log.register(1, 1)  # duplicate after client restart
    assert log.register(2, 1)      # other client, same step index: not a duplicate
    assert log.duplicates_discarded == 1
    assert log.count(1) == 2
    assert log.received_steps(1) == {1, 2}


def test_message_log_state_roundtrip():
    log = MessageLog()
    for step in range(5):
        log.register(7, step)
    state = log.state()
    restored = MessageLog()
    restored.restore(state)
    assert restored.received_steps(7) == set(range(5))
    assert not restored.register(7, 3)


def test_heartbeat_monitor_detects_silent_clients():
    monitor = HeartbeatMonitor(timeout=10.0)
    monitor.touch(1, timestamp=0.0)
    monitor.touch(2, timestamp=5.0)
    unresponsive = monitor.unresponsive_clients(now=12.0)
    assert [cid for cid, _ in unresponsive] == [1]
    silence = dict(unresponsive)[1]
    assert silence == pytest.approx(12.0)


def test_heartbeat_monitor_ignores_finished_clients():
    monitor = HeartbeatMonitor(timeout=1.0)
    monitor.touch(1, timestamp=0.0)
    monitor.mark_finished(1)
    assert monitor.unresponsive_clients(now=100.0) == []
    assert monitor.tracked_clients() == [1]


def test_heartbeat_monitor_progress_monotone():
    monitor = HeartbeatMonitor()
    monitor.touch(3, progress=5.0, timestamp=0.0)
    monitor.touch(3, progress=2.0, timestamp=1.0)
    assert monitor._clients[3].progress == 5.0


def _model():
    return build_mlp(MLPConfig(in_features=3, hidden_sizes=(8,), out_features=4, seed=0))


def test_server_checkpointer_save_restore(tmp_path):
    model = _model()
    optimizer = Adam(model.parameters(), lr=1e-3)
    log = MessageLog()
    log.register(0, 1)
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
    assert not fresh_log.register(0, 1)  # dedup state survived the restart


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
    assert log.received_steps(3) == log.received_steps(5) == {0, 1, 2, 3}
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
    assert log.count(1) == 6 and log.count(2) == 3
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
    # Per-key register reads and writes the same log.
    assert not log.register(9, 7) and log.register(9, 5000) and not log.register(9, 4)
    assert log.duplicates_discarded == 5
    assert log.received_steps(9) == {4, 7, 8, 5000}


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
