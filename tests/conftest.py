"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.buffers.columns import ColumnBatch
from repro.core.heat_usecase import HeatSurrogateCase, HeatSurrogateSpec
from repro.core.config import SurrogateArchitecture
from repro.experiments.common import ExperimentScale, build_case
from repro.parallel.spmd import SPMDExecutor
from repro.solvers.heat2d import HeatEquationConfig, HeatParameters


@pytest.fixture
def tiny_scale() -> ExperimentScale:
    """Very small experiment scale so integration tests stay fast."""
    return replace(
        ExperimentScale(),
        nx=10,
        ny=10,
        num_steps=8,
        num_simulations=6,
        series_sizes=(3, 3),
        hidden_sizes=(16, 16),
        buffer_capacity=24,
        buffer_threshold=6,
        validation_simulations=2,
        validation_interval=10,
        client_step_delay=0.001,
        inter_series_delay=0.05,
        batch_compute_delay=0.001,
        offline_io_delay_per_sample=0.0,
        max_concurrent_clients=3,
    )


@pytest.fixture
def tiny_case(tiny_scale: ExperimentScale) -> HeatSurrogateCase:
    return build_case(tiny_scale)


@pytest.fixture
def small_solver_config() -> HeatEquationConfig:
    return HeatEquationConfig(nx=10, ny=10, num_steps=5)


@pytest.fixture
def heat_params() -> HeatParameters:
    return HeatParameters(t_ic=250.0, t_x1=400.0, t_y1=120.0, t_x2=330.0, t_y2=180.0)


@pytest.fixture
def tiny_surrogate_case() -> HeatSurrogateCase:
    """A minimal heat surrogate case independent of the experiment scale."""
    spec = HeatSurrogateSpec(
        solver=HeatEquationConfig(nx=8, ny=8, num_steps=5),
        architecture=SurrogateArchitecture(hidden_sizes=(8, 8)),
        seed=3,
    )
    return HeatSurrogateCase(spec)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def _rows(indices) -> ColumnBatch:
    steps = np.fromiter(indices, dtype=np.int64)
    return ColumnBatch(
        steps[:, None].astype(np.float64),
        steps[:, None].astype(np.float32),
        np.zeros(len(steps), dtype=np.int64),
        steps,
    )


@pytest.fixture(scope="session")
def rows():
    """``rows(indices)``: the samples ``indices`` as one :class:`ColumnBatch`.

    Sample ``i`` is source 0, time step ``i``, with input and target ``[i]``,
    so the ``time_steps`` of a drawn batch name the samples it holds.  A
    one-row put is ``buffer.put_many(rows([i]))``; ``batch[k:k + 1]`` is row
    ``k`` of a batch as a one-row batch.
    """
    return _rows


def _run_spmd(size, target, *args, timeout=120.0, **kwargs):
    return SPMDExecutor(size, timeout=timeout).run(target, *args, **kwargs)


@pytest.fixture(scope="session")
def run_spmd():
    """``run_spmd(size, target, *args, timeout=120.0, **kwargs)``: run
    ``target(comm, *args, **kwargs)`` on ``size`` thread ranks and return the
    rank-ordered results (raises :class:`SPMDFailure` if any rank raised)."""
    return _run_spmd
