"""Regression tests for online-training data-loss and metric bugs.

Covers three bugs fixed together with the batched data path:

* a rank that drew a final (possibly partial) batch while the collective
  already agreed to stop used to silently discard those samples;
* the throughput meter's first window opened at the *completion* of the first
  batch, overestimating the first reported value by ~1/window;
* ``DataAggregator.stop()`` hung forever when the aggregator thread was
  blocked in a buffer insert on a full buffer.
"""

import time

import numpy as np
import pytest

from repro.buffers import FIFOBuffer
from repro.buffers.columns import ColumnBatch
from repro.core.metrics import ThroughputMeter, TrainingMetrics, merge_worker_metrics
from repro.nn import Adam, MLPConfig, build_mlp
from repro.parallel.messages import TimeStepMessage
from repro.parallel.transport import MessageRouter
from repro.server import trainer
from repro.server.aggregator import DataAggregator
from repro.server.trainer import TrainerConfig, TrainingWorker


def make_samples(count, input_size=3, target_size=5, seed=0):
    """A learnable batch: every target entry is the sum of the inputs."""
    inputs = np.random.default_rng(seed).random((count, input_size)).astype(np.float32)
    targets = np.repeat(inputs.sum(axis=1, keepdims=True), target_size, axis=1)
    return ColumnBatch(
        inputs.astype(np.float64),
        targets,
        np.zeros(count, dtype=np.int64),
        np.arange(count, dtype=np.int64),
    )


@pytest.fixture(autouse=True)
def short_get_timeout(monkeypatch):
    """A trainer that finds no data fails these tests in 5 s, not 60."""
    monkeypatch.setattr(trainer, "GET_TIMEOUT", 5.0)


def time_step(client_id, step, size=6):
    return TimeStepMessage(
        client_id=client_id,
        time_step=step,
        time_value=step * 0.01,
        parameters=(100.0, 200.0, 300.0, 400.0, 500.0),
        payload=np.full(size, float(step), dtype=np.float32),
        sequence_number=step,
    )


# ------------------------------------------------------- partial final batch
def test_ddp_rank_trains_final_partial_batch_instead_of_discarding(run_spmd):
    """Samples drawn by a rank whose peers ran dry must still be trained.

    Rank 0 holds 6 samples and rank 1 only 4, with a batch size of 4.  On the
    second round rank 0 draws a partial batch of 2 while rank 1 draws nothing,
    so the collective agrees to stop — but rank 0's two samples were already
    consumed from its buffer and must be trained, not dropped.
    """
    per_rank_counts = {0: 6, 1: 4}

    def main(comm):
        buffer = FIFOBuffer(capacity=50)
        buffer.put_many(make_samples(per_rank_counts[comm.rank], seed=comm.rank))
        buffer.signal_reception_over()
        model = build_mlp(MLPConfig(in_features=3, hidden_sizes=(8,), out_features=5, seed=0))
        worker = TrainingWorker(
            rank=comm.rank,
            model=model,
            optimizer=Adam(model.parameters(), lr=1e-3),
            buffer=buffer,
            config=TrainerConfig(batch_size=4, validation_interval=0),
            comm=comm,
        )
        metrics = worker.run()
        return metrics.batches_trained, metrics.samples_trained, len(buffer)

    results = run_spmd(2, main)
    assert results[0] == (2, 6, 0)  # full batch + trained partial remainder
    assert results[1] == (1, 4, 0)
    # No consumed sample was lost across the study.
    assert sum(samples for _, samples, _ in results) == sum(per_rank_counts.values())


@pytest.mark.parametrize("per_rank_counts", [(8, 30), (30, 8, 17, 12)], ids=["2-ranks", "4-ranks"])
def test_ddp_ranks_with_unequal_samples_stop_at_the_same_batch(per_rank_counts, run_spmd):
    """Every rank stops on the round the smallest buffer runs dry.

    With batch size 4 the 8-sample rank trains two synced batches and draws
    nothing on round 3, so the vote fails there for every rank: each other
    rank trains the batch it already drew (without the gradient sync) and
    stops with 12 samples out of its buffer and the rest left behind.
    """

    def main(comm):
        buffer = FIFOBuffer(capacity=50)
        buffer.put_many(make_samples(per_rank_counts[comm.rank], seed=comm.rank))
        buffer.signal_reception_over()
        model = build_mlp(MLPConfig(in_features=3, hidden_sizes=(8,), out_features=5, seed=0))
        worker = TrainingWorker(
            rank=comm.rank,
            model=model,
            optimizer=Adam(model.parameters(), lr=1e-3),
            buffer=buffer,
            config=TrainerConfig(batch_size=4, validation_interval=0),
            comm=comm,
        )
        metrics = worker.run()
        return metrics.batches_trained, metrics.samples_trained, len(buffer)

    results = run_spmd(len(per_rank_counts), main, timeout=30.0)
    for count, result in zip(per_rank_counts, results, strict=True):
        assert result == ((2, 8, 0) if count == 8 else (3, 12, count - 12))


def test_single_rank_trains_partial_final_batch():
    buffer = FIFOBuffer(capacity=50)
    buffer.put_many(make_samples(7))
    buffer.signal_reception_over()
    model = build_mlp(MLPConfig(in_features=3, hidden_sizes=(8,), out_features=5, seed=0))
    worker = TrainingWorker(
        rank=0,
        model=model,
        optimizer=Adam(model.parameters(), lr=1e-3),
        buffer=buffer,
        config=TrainerConfig(batch_size=5, validation_interval=0),
    )
    metrics = worker.run()
    assert metrics.batches_trained == 2
    assert metrics.samples_trained == 7


# ------------------------------------------------------- first-window timing
class TickingClock:
    """Clock advancing a fixed interval on every observation."""

    def __init__(self, interval=0.1):
        self.interval = interval
        self.ticks = 0

    def now(self):
        self.ticks += 1
        return self.ticks * self.interval


def test_throughput_first_window_counts_all_intervals_when_started():
    """With start(), the first window spans `window` full batch intervals."""
    meter = ThroughputMeter(window=10, clock=TickingClock(0.1))
    meter.start()  # opens the window before the first batch runs
    for _ in range(20):
        meter.record_batch(10)
    assert len(meter.values) == 2
    # 100 samples over 10 intervals of 0.1 s -> 100 samples/s, same for both
    # windows: the first value is no longer ~11 % higher than the second.
    assert meter.values[0] == pytest.approx(100.0, rel=1e-6)
    assert meter.values[1] == pytest.approx(100.0, rel=1e-6)


def test_throughput_first_window_bias_without_start_is_documented_fallback():
    """Without start() the old first-window bias remains (fallback path)."""
    meter = ThroughputMeter(window=10, clock=TickingClock(0.1))
    for _ in range(20):
        meter.record_batch(10)
    # First window: 10 batches over 9 intervals (biased); second: 10 over 10.
    assert meter.values[0] == pytest.approx(100.0 / 0.9, rel=1e-6)
    assert meter.values[1] == pytest.approx(100.0, rel=1e-6)


def test_training_worker_starts_throughput_meter_before_first_batch():
    buffer = FIFOBuffer(capacity=50)
    buffer.put_many(make_samples(8))
    buffer.signal_reception_over()
    model = build_mlp(MLPConfig(in_features=3, hidden_sizes=(8,), out_features=5, seed=0))
    worker = TrainingWorker(
        rank=0,
        model=model,
        optimizer=Adam(model.parameters(), lr=1e-3),
        buffer=buffer,
        config=TrainerConfig(batch_size=4, validation_interval=0),
    )
    metrics = worker.run()
    # start() stamped the clock before the first batch completed.
    assert metrics.throughput.start_time is not None
    assert metrics.throughput.end_time > metrics.throughput.start_time


# ------------------------------------------------------ aggregator shutdown
def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_aggregator_stop_returns_promptly_when_buffer_full():
    """stop() must not hang when the thread waits for space in a full buffer."""
    router = MessageRouter(1)
    buffer = FIFOBuffer(capacity=2)
    aggregator = DataAggregator(
        rank=0, router=router, buffer=buffer, expected_clients=1,
    )
    aggregator.start()
    for step in range(1, 11):
        router.push(0, time_step(0, step))
    # The aggregator fills the buffer and then blocks waiting for space.
    assert wait_until(lambda: len(buffer) == 2)
    began = time.monotonic()
    aggregator.stop()
    elapsed = time.monotonic() - began
    assert elapsed < 5.0
    assert wait_until(lambda: not aggregator.running)
    assert aggregator.stats.samples_received == 2
    # Every sample not inserted is either counted as dropped (drained from the
    # transport before the stop) or still sits in the router queue.
    assert aggregator.stats.samples_dropped + router.pending(0) == 8
    assert len(buffer) == 2  # no training consumer ever ran


# ------------------------------------------------------------ metric naming
def test_merge_worker_metrics_reports_total_throughput_only():
    def metrics_with(rank, throughput):
        metrics = TrainingMetrics(rank=rank)
        metrics.throughput.start_time = 0.0
        metrics.throughput.end_time = 10.0
        metrics.throughput.total_samples = int(throughput * 10)
        metrics.wall_time = 10.0
        return metrics

    merged = merge_worker_metrics([metrics_with(0, 100.0), metrics_with(1, 80.0)])
    assert merged["total_throughput"] == pytest.approx(180.0)
    # The sum over ranks has one name; "mean_throughput" is per rank only.
    assert "mean_throughput" not in merged
