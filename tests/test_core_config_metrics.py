"""Tests for study configuration objects, metrics and result containers."""

import numpy as np
import pytest

from repro.core.config import OfflineStudyConfig, OnlineStudyConfig, SurrogateArchitecture
from repro.core.metrics import (
    BufferPopulationSeries,
    LossHistory,
    ThroughputMeter,
    TrainingMetrics,
    merge_worker_metrics,
)
from repro.core.results import improvement_percent
from repro.utils.exceptions import ConfigurationError


def test_online_config_validation():
    with pytest.raises(ConfigurationError):
        OnlineStudyConfig(num_simulations=0)
    with pytest.raises(ConfigurationError):
        OnlineStudyConfig(buffer_threshold=100, buffer_capacity=10)
    with pytest.raises(ConfigurationError):
        OnlineStudyConfig(batch_size=0)


def test_online_config_lr_step_scaling():
    """The LR decay period in batches scales inversely with the GPU count (paper)."""
    base = OnlineStudyConfig(lr_step_samples=10_000, batch_size=10, num_ranks=1)
    assert base.lr_step_batches == 1_000
    two = OnlineStudyConfig(lr_step_samples=10_000, batch_size=10, num_ranks=2)
    assert two.lr_step_batches == 500
    four = OnlineStudyConfig(lr_step_samples=10_000, batch_size=10, num_ranks=4)
    assert four.lr_step_batches == 250


def test_online_config_trainer_config_propagates_fields():
    config = OnlineStudyConfig(batch_size=7, validation_interval=33, max_batches=12,
        batch_compute_delay=0.01)
    trainer = config.trainer_config()
    assert trainer.batch_size == 7
    assert trainer.validation_interval == 33
    assert trainer.max_batches == 12
    assert trainer.batch_compute_delay == 0.01


def test_offline_config_validation_and_lr():
    with pytest.raises(ConfigurationError):
        OfflineStudyConfig(num_epochs=0)
    config = OfflineStudyConfig(lr_step_samples=1000, batch_size=10, num_ranks=2)
    assert config.lr_step_batches == 50


def test_surrogate_architecture_validation():
    with pytest.raises(ConfigurationError):
        SurrogateArchitecture(hidden_sizes=())
    assert SurrogateArchitecture().hidden_sizes == (256, 256)


def test_throughput_meter_windows_with_virtual_clock():
    class TickingClock:
        ticks = 0

        def now(self):
            self.ticks += 1
            return 0.1 * self.ticks

    meter = ThroughputMeter(window=5, clock=TickingClock())
    for _ in range(10):
        meter.record_batch(10)
    assert len(meter.values) == 2
    assert meter.total_samples == 100
    assert meter.total_batches == 10
    # The window spans 4 ticks (first batch opens it): 50 samples / 0.4 s.
    assert meter.values[0] == pytest.approx(125.0, rel=0.01)
    assert meter.mean_throughput() > 0


def test_throughput_meter_empty():
    meter = ThroughputMeter()
    assert meter.mean_throughput() == 0.0
    times, values = meter.series()
    assert times.size == 0 and values.size == 0


def test_loss_history_best_and_final():
    history = LossHistory()
    history.record_train(5.0)
    history.record_train(3.0)
    history.record_validation(4.0)
    history.record_validation(2.5)
    history.record_validation(2.8)
    assert history.best_validation_loss == 2.5
    assert history.final_validation_loss == 2.8
    assert history.final_training_loss == 3.0


def test_loss_history_empty_is_nan():
    history = LossHistory()
    assert np.isnan(history.best_validation_loss)
    assert np.isnan(history.final_training_loss)


def test_buffer_population_series():
    series = BufferPopulationSeries()
    series.record(0.0, 10)
    series.record(1.0, 30)
    assert series.max_population() == 30
    assert series.sizes == [10, 30]


def test_merge_worker_metrics_sums_throughput():
    def metrics_with(rank, throughput, batches):
        metrics = TrainingMetrics(rank=rank)
        metrics.batches_trained = batches
        metrics.samples_trained = batches * 10
        metrics.throughput.start_time = 0.0
        metrics.throughput.end_time = 10.0
        metrics.throughput.total_samples = int(throughput * 10)
        metrics.losses.record_validation(1.0 + rank)
        metrics.wall_time = 10.0
        return metrics

    merged = merge_worker_metrics([metrics_with(0, 100, 50), metrics_with(1, 80, 50)])
    assert merged["num_ranks"] == 2
    assert merged["total_batches"] == 100
    assert merged["total_throughput"] == pytest.approx(180.0)
    assert merged["best_val_mse"] == 1.0  # rank-0 losses
    assert merge_worker_metrics([]) == {}


def test_improvement_percent():
    assert improvement_percent(100.0, 53.0) == pytest.approx(47.0)
    assert np.isnan(improvement_percent(0.0, 1.0))
    assert np.isnan(improvement_percent(float("nan"), 1.0))
