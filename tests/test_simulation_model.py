"""Tests for the discrete-event performance model."""

import numpy as np
import pytest

from repro.simulation.costs import ClusterCostModel, IOCostModel, SolverCostModel, TrainingCostModel
from repro.simulation.pipeline import PipelineSimulator, simulate_offline_pipeline


def test_solver_cost_model_scaling():
    model = SolverCostModel(seconds_per_cell_per_core=1e-5, startup_seconds=0.0)
    base = model.step_seconds(grid_cells=10_000, cores_per_client=10)
    assert model.step_seconds(20_000, 10) == pytest.approx(2 * base)
    assert model.step_seconds(10_000, 20) == pytest.approx(base / 2)
    with pytest.raises(ValueError):
        model.step_seconds(0, 10)


def test_training_cost_model_scaling():
    model = TrainingCostModel()
    small = model.batch_seconds(num_parameters=1_000_000, batch_size=10)
    large = model.batch_seconds(num_parameters=2_000_000, batch_size=10)
    assert large > small
    assert model.samples_per_second(1_000_000, 10) == pytest.approx(10 / small)
    with pytest.raises(ValueError):
        model.batch_seconds(0, 10)


def test_io_cost_model():
    model = IOCostModel(read_bandwidth_bytes_per_s=1e8, streams=1, per_file_overhead_seconds=0.0)
    assert model.write_seconds(2e8) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        model.write_seconds(-1)


def test_cluster_cost_model_matches_paper_rates():
    model = ClusterCostModel()
    # 1 kh CPU = 6 EUR, 1 kh GPU = 360 EUR, 1 TB = 56 EUR (paper's figures).
    assert model.compute_cost(1000.0, 0.0) == pytest.approx(6.0)
    assert model.compute_cost(0.0, 1000.0) == pytest.approx(360.0)
    assert model.storage_cost(1.0) == pytest.approx(56.0)


def _simulator(buffer_kind, **overrides):
    params = dict(
        num_simulations=100,
        steps_per_simulation=50,
        grid_cells=10_000,
        cores_per_client=10,
        concurrent_clients=20,
        num_gpus=1,
        model_parameters=5_000_000,
        batch_size=10,
        buffer_kind=buffer_kind,
        buffer_capacity=1_000,
        buffer_threshold=200,
        tick=0.5,
    )
    params.update(overrides)
    return PipelineSimulator(**params)


def test_pipeline_fifo_consumes_each_sample_once():
    estimate = _simulator("fifo").run()
    total = 100 * 50
    assert estimate.batches_trained * 10 == pytest.approx(total, rel=0.01)
    assert estimate.mean_throughput * estimate.total_seconds == pytest.approx(total, rel=0.01)


def test_pipeline_reservoir_throughput_at_least_fifo():
    fifo = _simulator("fifo").run()
    reservoir = _simulator("reservoir").run()
    assert reservoir.mean_throughput >= fifo.mean_throughput * 0.99
    assert reservoir.batches_trained >= fifo.batches_trained


def test_pipeline_reservoir_scales_with_gpus_fifo_does_not():
    """Table 1 shape: only the Reservoir benefits from more GPUs at fixed production."""
    fifo_1 = _simulator("fifo", num_gpus=1).run()
    fifo_4 = _simulator("fifo", num_gpus=4).run()
    res_1 = _simulator("reservoir", num_gpus=1).run()
    res_4 = _simulator("reservoir", num_gpus=4).run()
    fifo_scaling = fifo_4.mean_throughput / fifo_1.mean_throughput
    reservoir_scaling = res_4.mean_throughput / res_1.mean_throughput
    assert reservoir_scaling > fifo_scaling
    assert reservoir_scaling > 1.5


def test_pipeline_series_transitions_produce_throughput_dips():
    """Figure 2 shape: FIFO throughput dips during inter-series gaps."""
    estimate = _simulator(
        "fifo",
        series_sizes=(10, 10),
        concurrent_clients=10,
        inter_series_delay=60.0,
    ).run()
    population = estimate.buffer_population
    empty = np.flatnonzero(population == 0.0)
    # The buffer runs dry during the series transition (nothing to train on)
    # and refills once the second series produces.
    assert empty.size and population[empty[0]:].max() > 0.0


def test_offline_pipeline_io_bound_at_paper_scale():
    estimate = simulate_offline_pipeline(
        num_simulations=250,
        steps_per_simulation=100,
        grid_cells=1000 * 1000,
        cores_per_client=20,
        concurrent_clients=100,
        num_gpus=4,
        model_parameters=514_000_000,
        num_epochs=100,
    )
    io = IOCostModel()
    read_rate = io.read_bandwidth_bytes_per_s * io.streams * 4 / (1000 * 1000 * 4)
    assert estimate.samples_per_second == pytest.approx(read_rate)  # I/O-bound
    assert estimate.dataset_bytes == pytest.approx(100e9, rel=0.01)
    # The paper reports ~38 samples/s and ~24.5 h; the model should land in the
    # same order of magnitude.
    assert 10 < estimate.samples_per_second < 150
    assert 5 < estimate.total_hours < 100


def test_online_extrapolation_reproduces_table2_shape():
    from repro.experiments.table2 import extrapolate_table2

    extrapolation = extrapolate_table2()
    # Online processes batches much faster than the I/O-bound offline baseline...
    assert extrapolation.throughput_ratio > 3.0
    # ...and finishes the 8 TB run within the same order as the paper's ~2 h,
    # far below the offline baseline's ~24 h.
    assert extrapolation.online_total_hours < extrapolation.offline_total_hours
    assert extrapolation.online_dataset_gb == pytest.approx(8000.0, rel=0.01)
    # Storing the 8 TB dataset would cost ~448 EUR at the paper's 56 EUR/TB.
    assert extrapolation.offline_8tb_storage_cost_euros == pytest.approx(448.0, rel=0.01)
