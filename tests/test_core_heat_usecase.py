"""Tests for the heat-equation use case wiring (factories, datasets, validation)."""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.config import SurrogateArchitecture
from repro.core.heat_usecase import HeatSurrogateCase, HeatSurrogateSpec
from repro.offline.dataset import SimulationDataset
from repro.sampling import get_sampler
from repro.solvers.heat2d import HeatEquationConfig, HeatEquationSolver, HeatParameters


@pytest.fixture
def case():
    return HeatSurrogateCase(
        HeatSurrogateSpec(
            solver=HeatEquationConfig(nx=8, ny=8, num_steps=4),
            architecture=SurrogateArchitecture(hidden_sizes=(8,)),
            sampler="halton",
            seed=11,
        )
    )


def test_case_dimensions(case):
    assert case.field_size == 64
    assert case.input_size == 6
    assert case.solver_config.num_steps == 4


def test_model_factory_replicas_identical(case):
    a = case.model_factory()
    b = case.model_factory()
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters(), strict=True):
        assert np.array_equal(pa.data, pb.data)
    out = a.forward(np.zeros((2, 6), dtype=np.float32))
    assert out.shape == (2, 64)


def test_sample_parameters_within_paper_range(case):
    samples = case.sample_parameters(16)
    assert samples.shape == (16, 5)
    assert samples.min() >= 100.0 and samples.max() <= 500.0
    params = case.parameters_to_solver(samples[0])
    assert isinstance(params, HeatParameters)


def solver_fields(case, parameters):
    """The fields a fresh solver computes for ``parameters``, as stored."""
    solver = HeatEquationSolver(case.spec.solver)
    fields = [field.reshape(-1)
              for _, _, field in solver.iter_steps(case.parameters_to_solver(parameters))]
    return np.asarray(fields, dtype=np.float32)


def test_run_simulation_shapes(case, tmp_path):
    store = case.generate_store(tmp_path / "store", num_simulations=1)
    stored = store.simulations[0]
    fields = store.load_fields(stored, mmap=False)
    assert len(stored.times) == 4
    assert fields.shape == (4, 64)
    assert fields.dtype == np.float32
    assert np.array_equal(fields, solver_fields(case, stored.parameters))


def test_generate_validation_set_independent_of_training_design(case):
    validation = case.generate_validation_set(num_simulations=2)
    assert validation.inputs.shape == (2 * 4, 6)
    assert validation.targets.shape == (8, 64)
    # Validation parameters come from a shifted sampler stream: they must not
    # coincide with the first training parameters.
    training = case.sample_parameters(2)
    assert not np.allclose(validation.inputs[:1, :5], training[0])


@pytest.fixture
def solver_builds(case, monkeypatch):
    """Count the case's ``solver_factory`` calls."""
    builds = []
    factory = case.solver_factory

    def counting_factory():
        builds.append(1)
        return factory()

    monkeypatch.setattr(case, "solver_factory", counting_factory)
    return builds


def test_validation_set_builds_one_solver_and_keeps_its_bytes(case, solver_builds):
    validation = case.generate_validation_set(3)
    assert len(solver_builds) == 1
    # Recorded when every validation simulation built its own solver.
    digest = hashlib.sha256(validation.inputs.tobytes() + validation.targets.tobytes())
    assert digest.hexdigest() == "c0d80cce2b3be67d65cdefadcdc42f3adf7df2ee2c4f9792f04ded4a1da797a2"


def test_store_threads_share_one_solver(case, solver_builds, tmp_path):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        store = case.generate_store(tmp_path / "store", num_simulations=6)
    finally:
        sys.setswitchinterval(interval)
    assert len(solver_builds) == 1
    assert len(store.simulations) == 6
    for stored in store.simulations:
        assert np.array_equal(store.load_fields(stored, mmap=False),
                              solver_fields(case, stored.parameters))


def test_generate_store_roundtrip(case, tmp_path):
    store = case.generate_store(tmp_path / "store", num_simulations=3)
    assert len(store) == 3
    dataset = SimulationDataset(store)
    assert len(dataset) == 12
    inputs, target = dataset[0]
    assert inputs.shape == (6,)
    assert target.shape == (64,)


def test_validation_set_is_built_in_place():
    """A 10,000-step validation set peaks at its own arrays: no per-step
    series, float64 stack or per-row concatenation on the way."""
    config = HeatEquationConfig(nx=6, ny=6, num_steps=10_000)
    case = HeatSurrogateCase(HeatSurrogateSpec(solver=config))
    tracemalloc.start()
    try:
        validation = case.generate_validation_set(num_simulations=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = validation.inputs.nbytes + validation.targets.nbytes
    assert peak <= 1.5 * returned, (peak, returned)
    row = get_sampler(case.spec.sampler, case.spec.parameter_space, seed=10_000).sample(1)[0]
    params = case.parameters_to_solver(row)
    for step, time_value, field in case.solver_factory().iter_steps(params):
        if step in (1, 5_000, 10_000):
            assert validation.inputs[step - 1, -1] == np.float32(time_value)
            assert np.array_equal(validation.targets[step - 1], field.ravel().astype(np.float32))
