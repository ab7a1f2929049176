"""Tests for the offline storage, dataset, dataloader and offline study."""

import hashlib
import time

import numpy as np
import pytest

from repro.core.config import OfflineStudyConfig, SurrogateArchitecture
from repro.core.heat_usecase import HeatSurrogateCase, HeatSurrogateSpec
from repro.core.study import OfflineStudy
from repro.offline.dataloader import DataLoader
from repro.offline.dataset import SimulationDataset
from repro.offline.storage import SimulationStore
from repro.server.validation import ValidationSet
from repro.solvers.heat2d import HeatEquationConfig
from repro.utils.exceptions import ConfigurationError


@pytest.fixture
def store(tmp_path):
    store = SimulationStore(tmp_path / "data")
    rng = np.random.default_rng(0)
    for sim_id in range(4):
        fields = rng.random((6, 9)).astype(np.float32)
        times = np.linspace(0.01, 0.06, 6)
        params = rng.uniform(100, 500, size=5)
        store.add_simulation(sim_id, params.tolist(), times.tolist(), fields)
    return store


def test_store_index_and_sizes(store, tmp_path):
    assert len(store) == 4
    assert store.total_samples == 24
    assert store.total_bytes == 24 * 9 * 4
    # Reopening the directory reloads the index.
    reopened = SimulationStore(tmp_path / "data")
    assert len(reopened) == 4
    assert reopened.simulations[0].num_steps == 6


def test_store_load_step_matches_full_load(store):
    simulation = store.simulations[2]
    full = store.load_fields(simulation, mmap=False)
    single = store.load_fields(simulation, mmap=True)[3]
    assert np.array_equal(single, full[3])


def test_store_rejects_mismatched_times(tmp_path):
    store = SimulationStore(tmp_path)
    with pytest.raises(ValueError):
        store.add_simulation(0, [1.0] * 5, [0.01, 0.02], np.zeros((3, 4)))


def test_dataset_indexing(store):
    dataset = SimulationDataset(store)
    assert len(dataset) == 24
    assert dataset.field_size == 9
    assert dataset.input_size == 6
    inputs, target = dataset[7]
    assert inputs.shape == (6,)
    assert target.shape == (9,)
    sim_id, step = dataset.sample_identity(7)
    assert 0 <= sim_id < 4 and 0 <= step < 6
    # Input ends with the time value of that step.
    simulation = [s for s in store if s.simulation_id == sim_id][0]
    assert inputs[-1] == pytest.approx(simulation.times[step])


def test_empty_store_rejected(tmp_path):
    with pytest.raises(ValueError):
        SimulationDataset(SimulationStore(tmp_path / "empty"))


def drain(loader, n):
    """Every batch a loader yields until its empty stop batch."""
    batches = []
    while len(batch := loader.get_batch_columns(n, timeout=0)):
        batches.append(batch)
    return batches


def identities(batches):
    return [(int(s), int(t)) for b in batches for s, t in zip(b.source_ids, b.time_steps)]


def test_dataloader_covers_dataset_once_per_epoch(store):
    dataset = SimulationDataset(store)
    batches = drain(DataLoader(dataset, seed=0), 5)
    assert [len(b) for b in batches] == [5, 5, 5, 5, 4]  # ceil(24 / 5), remainder last
    for batch in batches:
        assert batch.inputs.shape[1] == 6 and batch.targets.shape[1] == 9
        assert batch.inputs.dtype == np.float32 and batch.targets.dtype == np.float32
    assert sorted(identities(batches)) == [(sim, step) for sim in range(4) for step in range(6)]


def test_dataloader_rows_are_the_dataset_samples(store):
    dataset = SimulationDataset(store)
    batch = DataLoader(dataset, seed=1).get_batch_columns(7)
    for row, (sim_id, step) in enumerate(identities([batch])):
        index = sim_id * 6 + step
        inputs, target = dataset[index]
        assert dataset.sample_identity(index) == (sim_id, step)
        assert np.array_equal(batch.inputs[row], inputs)
        assert np.array_equal(batch.targets[row], target)


def test_dataloader_inputs_are_the_stored_parameters_rounded_once(store):
    """The loader yields the online path's sample dtype: float32 inputs equal
    to the float64 parameters and times of the store rounded once."""
    batch = DataLoader(SimulationDataset(store), seed=2).get_batch_columns(24)
    assert batch.inputs.dtype == np.float32
    by_id = {simulation.simulation_id: simulation for simulation in store}
    for row, (sim_id, step) in enumerate(identities([batch])):
        simulation = by_id[sim_id]
        wire = np.array([*simulation.parameters, simulation.times[step]], dtype=np.float64)
        np.testing.assert_array_equal(batch.inputs[row], wire.astype(np.float32))


def test_dataloader_shuffles_differently_each_epoch(store):
    dataset = SimulationDataset(store)
    loader = DataLoader(dataset, num_epochs=2, seed=0)
    first_epoch = loader.get_batch_columns(24)
    second_epoch = loader.get_batch_columns(24)
    assert not np.allclose(first_epoch.inputs, second_epoch.inputs)
    assert sorted(identities([first_epoch])) == sorted(identities([second_epoch]))
    assert len(loader.get_batch_columns(24)) == 0  # two epochs, then the stop batch


def test_dataloader_sharding_partitions_samples(store):
    dataset = SimulationDataset(store)
    seen = []
    for rank in range(2):
        seen.extend(identities(drain(DataLoader(dataset, rank=rank, world_size=2), 4)))
    assert len(seen) == len(set(seen)) == 24  # equal shards, no overlap


def test_dataloader_sleeps_its_io_delay_per_sample(store):
    loader = DataLoader(SimulationDataset(store), io_delay_per_sample=0.01)
    start = time.monotonic()
    loader.get_batch_columns(5)
    assert time.monotonic() - start >= 0.05


def test_dataloader_validation(store):
    dataset = SimulationDataset(store)
    with pytest.raises(ValueError):
        DataLoader(dataset).get_batch_columns(0)
    with pytest.raises(ValueError):
        DataLoader(dataset, rank=3, world_size=2)
    with pytest.raises(ValueError):
        DataLoader(dataset, num_epochs=0)


# ------------------------------------------------------------ offline study
#: sha256 of the final weights of the offline run below, recorded from the
#: standalone multi-epoch offline trainer that ``OfflineStudy`` replaced: the
#: shared training loop reproduces it byte for byte.
FINAL_WEIGHTS_SHA256 = {
    1: "60871e930e4d9996efe39bb3c362c8c17557d583107efcbf910133c445e261e7",
    2: "a6daa86430188ab383667942aec684cc02477e283472b71ab04457f72c5f2188",
}

TINY_CASE = HeatSurrogateCase(HeatSurrogateSpec(
    solver=HeatEquationConfig(nx=3, ny=3, num_steps=6),  # the store's 9-point fields
    architecture=SurrogateArchitecture(hidden_sizes=(16,)),
))


def run_offline(store, validation=None, **overrides):
    """An offline study of the 4 x 6-sample store: batch 4, StepLR every 5 batches."""
    num_ranks = overrides.get("num_ranks", 1)
    settings = dict(num_simulations=4, batch_size=4, lr_step_samples=5 * 4 * num_ranks)
    settings.update(overrides)
    return OfflineStudy(TINY_CASE, OfflineStudyConfig(**settings),
                        validation=validation, store=store).run()


def weights_sha256(model):
    digest = hashlib.sha256()
    for param in model.parameters():
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()


def validation_for(store):
    dataset = SimulationDataset(store)
    inputs, targets = zip(*(dataset[index] for index in range(6)))
    return ValidationSet(np.stack(inputs), np.stack(targets))


@pytest.mark.parametrize("num_ranks", [1, 2])
def test_offline_final_weights_match_recorded_digest(store, num_ranks):
    result = run_offline(store, validation_for(store), num_epochs=3, num_ranks=num_ranks,
                         validation_interval=2)
    assert weights_sha256(result.model) == FINAL_WEIGHTS_SHA256[num_ranks]


def test_offline_study_reports_occurrence_histogram(store):
    result = run_offline(store, num_epochs=3)
    assert result.metrics.occurrence_histogram == {3: 24}  # every sample once per epoch


def test_offline_throughput_meter_opens_before_first_batch(store):
    # 3 batches of 4 samples, each taking >= 0.05 s: 12 samples over >= 0.15 s.
    # A meter opened after the first batch would divide by two intervals.
    result = run_offline(store, num_epochs=1, batch_compute_delay=0.05, max_batches=3)
    assert result.total_batches == 3
    assert 0 < result.total_throughput <= 12 / 0.15


def test_offline_trainer_single_rank(store):
    result = run_offline(store, validation_for(store), num_epochs=3, batch_size=6,
                         validation_interval=2, lr_step_samples=300)
    assert result.metrics.batches_trained == 12  # 4 batches/epoch * 3 epochs
    assert np.isfinite(result.best_validation_loss)
    losses = result.metrics.losses.train_losses
    assert losses[-1] < losses[0]


def test_offline_trainer_multi_rank_matches_sample_budget(store):
    result = run_offline(store, num_epochs=2, num_ranks=2, lr_step_samples=400)
    total_samples = sum(m.samples_trained for m in result.per_rank_metrics)
    assert total_samples == 2 * 24
    assert len(result.per_rank_metrics) == 2
    assert result.summary["total_samples"] == 2 * 24


def test_offline_trainer_max_batches(store):
    result = run_offline(store, num_epochs=10, max_batches=5, lr_step_samples=200)
    assert result.metrics.batches_trained == 5


def test_offline_config_validation():
    with pytest.raises(ConfigurationError):
        OfflineStudyConfig(num_epochs=0)
    with pytest.raises(ConfigurationError):
        OfflineStudyConfig(num_ranks=0)
    with pytest.raises(ConfigurationError):
        OfflineStudyConfig(batch_size=0)
