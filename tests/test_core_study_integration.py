"""End-to-end integration tests of the online and offline studies."""

import os

import numpy as np
import pytest

from repro.core.config import OfflineStudyConfig, OnlineStudyConfig, SurrogateArchitecture
from repro.core.heat_usecase import HeatSurrogateCase, HeatSurrogateSpec
from repro.core.study import OfflineStudy, OnlineStudy
from repro.experiments.common import (
    build_validation,
    online_config,
    run_offline_baseline,
    run_online_with_buffer,
)
from repro.launcher.launcher import Launcher
from repro.solvers.heat2d import HeatEquationConfig, HeatEquationSolver


@pytest.mark.parametrize("buffer_kind", ["fifo", "firo", "reservoir"])
def test_online_study_end_to_end_single_rank(tiny_scale, tiny_case, buffer_kind):
    result = run_online_with_buffer(buffer_kind, scale=tiny_scale, num_ranks=1, case=tiny_case)
    expected_unique = tiny_scale.num_simulations * tiny_scale.num_steps
    assert result.unique_samples == expected_unique
    # Every unique sample was received by the server exactly once.
    received = sum(stats.samples_received for stats in result.server.aggregator_stats)
    assert received == expected_unique
    assert result.launcher.clients_completed == tiny_scale.num_simulations
    assert result.total_batches > 0
    assert result.total_throughput > 0
    assert np.isfinite(result.metrics.losses.final_training_loss)
    # FIFO/FIRO consume each sample at most once; Reservoir may repeat samples.
    trained_samples = int(result.server.summary["total_samples"])
    if buffer_kind in ("fifo", "firo"):
        assert trained_samples <= expected_unique
    else:
        assert trained_samples >= expected_unique


def test_online_study_with_validation_records_losses(tiny_scale, tiny_case):
    validation = build_validation(tiny_case, tiny_scale)
    result = run_online_with_buffer("reservoir", scale=tiny_scale, num_ranks=1,
                                    case=tiny_case, validation=validation)
    assert len(result.metrics.losses.val_losses) >= 1
    assert np.isfinite(result.best_validation_loss)


def test_online_study_multi_rank_distributes_data(tiny_scale, tiny_case):
    result = run_online_with_buffer("reservoir", scale=tiny_scale, num_ranks=2, case=tiny_case)
    expected_unique = tiny_scale.num_simulations * tiny_scale.num_steps
    received = sum(stats.samples_received for stats in result.server.aggregator_stats)
    assert received == expected_unique
    per_rank = [stats.samples_received for stats in result.server.aggregator_stats]
    # Round-robin distribution balances data between the two ranks.
    assert abs(per_rank[0] - per_rank[1]) <= expected_unique * 0.2
    assert len(result.server.per_rank_metrics) == 2
    # Replicas run in lockstep while the collective continues; at termination
    # a rank may train one extra (possibly partial) final batch sync-free
    # rather than discarding samples it already drew from its buffer.
    batches = [m.batches_trained for m in result.server.per_rank_metrics]
    assert abs(batches[0] - batches[1]) <= 1


def test_online_study_respects_max_batches(tiny_scale, tiny_case):
    config = online_config(tiny_scale, "reservoir", num_ranks=1, use_series=False, max_batches=5)
    study = OnlineStudy(tiny_case, config)
    result = study.run()
    assert result.metrics.batches_trained == 5


def test_offline_study_end_to_end(tiny_scale, tiny_case, tmp_path):
    result = run_offline_baseline(scale=tiny_scale, num_epochs=2, num_ranks=1, case=tiny_case,
        store_dir=tmp_path / "offline-store")
    expected_unique = tiny_scale.num_simulations * tiny_scale.num_steps
    assert result.unique_samples == expected_unique
    assert result.generation_elapsed > 0
    assert (tmp_path / "offline-store" / "index.json").exists()
    assert result.metrics.batches_trained > 0
    losses = result.metrics.losses.train_losses
    assert losses[-1] < losses[0] * 2  # training is at least not diverging


def test_offline_study_reuses_existing_store(tiny_scale, tiny_case, tmp_path):
    first = run_offline_baseline(scale=tiny_scale, num_epochs=1, case=tiny_case,
        store_dir=tmp_path / "store")
    # Re-run training on the already generated store: no regeneration cost.
    from repro.offline.storage import SimulationStore

    store = SimulationStore(tmp_path / "store")
    config = OfflineStudyConfig(num_simulations=tiny_scale.num_simulations, num_epochs=1,
                                batch_size=tiny_scale.batch_size, seed=tiny_scale.seed)
    study = OfflineStudy(tiny_case, config, store=store)
    second = study.run()
    assert second.generation_elapsed == 0.0
    assert second.unique_samples == first.unique_samples


def test_online_and_offline_see_same_unique_sample_budget(tiny_scale):
    """Both settings are built from the same ensemble size (paper's comparison basis)."""
    from repro.experiments.common import build_case

    online = run_online_with_buffer("firo", scale=tiny_scale, case=build_case(tiny_scale))
    offline = run_offline_baseline(scale=tiny_scale, num_epochs=1, case=build_case(tiny_scale))
    assert online.unique_samples == offline.unique_samples


def test_online_study_table_row_fields(tiny_scale, tiny_case):
    result = run_online_with_buffer("reservoir", scale=tiny_scale, case=tiny_case)
    row = result.table_row("online")
    assert row["setting"] == "online"
    assert row["unique_samples"] == result.unique_samples
    assert row["dataset_gb"] == pytest.approx(result.dataset_gigabytes)


@pytest.mark.parametrize("backend, num_clients", [("inproc", 8), ("shm", 4)])
def test_a_study_builds_one_solver_before_its_clients_start(tmp_path, monkeypatch,
                                                            backend, num_clients):
    """Every ensemble member drives the same operator: the study builds one
    solver before ``Launcher.start()``, and no process builds another after
    it — not the server, the spawner or a forked client."""
    events = tmp_path / "events.txt"

    def record(event):
        with open(events, "a") as out:  # forked processes append to the same file
            out.write(f"{event} {os.getpid()}\n")

    build, start = HeatEquationSolver.__init__, Launcher.start

    def counting_build(self, config):
        record("build")
        build(self, config)

    def marked_start(self):
        record("start")
        return start(self)

    monkeypatch.setattr(HeatEquationSolver, "__init__", counting_build)
    monkeypatch.setattr(Launcher, "start", marked_start)
    case = HeatSurrogateCase(HeatSurrogateSpec(
        solver=HeatEquationConfig(nx=10, ny=10, num_steps=8),
        architecture=SurrogateArchitecture(hidden_sizes=(16, 16)), seed=3))
    config = OnlineStudyConfig(num_simulations=num_clients, max_concurrent_clients=2,
                               buffer_capacity=32, buffer_threshold=8, batch_size=4,
                               transport=backend, seed=3)
    result = OnlineStudy(case, config).run()
    assert (result.launcher.clients_completed, result.launcher.clients_failed) == (num_clients, 0)
    server = str(os.getpid())
    assert [line.split() for line in events.read_text().splitlines()] == [
        ["build", server], ["start", server]]
