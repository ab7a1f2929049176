"""Tests for the training worker (single rank, buffer-driven loop)."""

import numpy as np
import pytest

from repro.buffers import FIFOBuffer, ReservoirBuffer
from repro.buffers.columns import ColumnBatch
from repro.nn import Adam, MLPConfig, StepLR, build_mlp
from repro.server import trainer
from repro.server.trainer import TrainerConfig, TrainingWorker
from repro.server.validation import ValidationSet, Validator


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


def make_worker(buffer, max_batches=None, validator=None, batch_size=4,
                validation_interval=5, scheduler_steps=None):
    model = build_mlp(MLPConfig(in_features=3, hidden_sizes=(8,), out_features=5, seed=0))
    optimizer = Adam(model.parameters(), lr=1e-3)
    scheduler = None
    if scheduler_steps is not None:
        scheduler = StepLR(optimizer, step_size=scheduler_steps)
    config = TrainerConfig(
        batch_size=batch_size,
        validation_interval=validation_interval,
        max_batches=max_batches,
    )
    return TrainingWorker(
        rank=0,
        model=model,
        optimizer=optimizer,
        buffer=buffer,
        config=config,
        scheduler=scheduler,
        validator=validator,
    )


def test_worker_trains_until_buffer_exhausted():
    buffer = FIFOBuffer(capacity=200)
    buffer.put_many(make_samples(40))
    buffer.signal_reception_over()
    worker = make_worker(buffer, batch_size=8)
    metrics = worker.run()
    assert metrics.batches_trained == 5
    assert metrics.samples_trained == 40
    assert len(metrics.losses.train_losses) == 5
    assert metrics.wall_time > 0


def test_worker_respects_max_batches():
    buffer = ReservoirBuffer(capacity=50, threshold=0)
    buffer.put_many(make_samples(20))
    worker = make_worker(buffer, max_batches=7)
    metrics = worker.run()
    assert metrics.batches_trained == 7


def test_worker_loss_decreases_on_learnable_problem():
    buffer = ReservoirBuffer(capacity=200, threshold=0, seed=0)
    buffer.put_many(make_samples(100, seed=1))
    worker = make_worker(buffer, max_batches=150, batch_size=10)
    metrics = worker.run()
    early = np.mean(metrics.losses.train_losses[:10])
    late = np.mean(metrics.losses.train_losses[-10:])
    assert late < early


def test_worker_runs_validation_and_records_best():
    samples = make_samples(60, seed=2)
    buffer = FIFOBuffer(capacity=200)
    buffer.put_many(samples)
    buffer.signal_reception_over()
    validator = Validator(ValidationSet(samples.inputs[:10], samples.targets[:10]))
    worker = make_worker(buffer, validator=validator, batch_size=6, validation_interval=3)
    metrics = worker.run()
    assert len(metrics.losses.val_losses) >= 2
    assert np.isfinite(metrics.losses.best_validation_loss)
    assert metrics.losses.best_validation_loss <= metrics.losses.val_losses[0] + 1e-12


def test_worker_tracks_occurrences_and_population():
    buffer = ReservoirBuffer(capacity=30, threshold=0, seed=0)
    buffer.put_many(make_samples(10))
    worker = make_worker(buffer, max_batches=20, batch_size=5)
    metrics = worker.run()
    histogram = metrics.occurrence_histogram
    assert sum(histogram.values()) == 10  # every stored sample selected at least once
    assert sum(k * v for k, v in histogram.items()) == 20 * 5
    assert len(metrics.buffer_population.sizes) == 20


def test_worker_scheduler_decays_learning_rate():
    buffer = FIFOBuffer(capacity=200)
    buffer.put_many(make_samples(80))
    buffer.signal_reception_over()
    worker = make_worker(buffer, batch_size=4, scheduler_steps=10)
    initial_lr = worker.optimizer.lr
    worker.run()
    assert worker.optimizer.lr < initial_lr


def test_worker_throughput_meter_records_windows():
    buffer = FIFOBuffer(capacity=300)
    buffer.put_many(make_samples(120))
    buffer.signal_reception_over()
    worker = make_worker(buffer, batch_size=4)
    metrics = worker.run()
    # 30 batches with a window of 10 -> 3 throughput measurements.
    assert len(metrics.throughput.values) == 3
    assert metrics.throughput.mean_throughput() > 0
