"""Tests for the client API and the simulation client."""

import numpy as np
import pytest

from repro.client.api import ClientAPI
from repro.client.simulation_client import ClientRunResult, SimulationClient, SimulationFailure
from repro.buffers.columns import ColumnBatch
from repro.parallel.messages import ClientFinished, ClientHello
from repro.parallel.transport import MessageRouter
from repro.solvers.heat2d import HeatEquationConfig, HeatEquationSolver, HeatParameters


def drain(router: MessageRouter, rank: int):
    """Everything queued for ``rank``: control messages and step chunks."""
    items = []
    while True:
        polled = router.poll_batches(rank, timeout=0.01)
        if not polled:
            return items
        items.extend(polled)


def chunks_of(items):
    return [item for item in items if isinstance(item, ColumnBatch)]


def time_steps_of(items):
    return [step for chunk in chunks_of(items) for step in chunk.time_steps.tolist()]


def test_client_api_lifecycle_and_messages():
    router = MessageRouter(2)
    api = ClientAPI(router, client_id=3)
    api.init_communication(parameters=(1.0, 2.0, 3.0, 4.0, 5.0), num_time_steps=4,
        field_shape=(4, 4))
    for step in range(1, 4):
        api.send(step, step * 0.01, (1.0, 2.0, 3.0, 4.0, 5.0), np.ones((4, 4)) * step)
    api.finalize_communication()

    rank0 = drain(router, 0)
    rank1 = drain(router, 1)
    all_messages = rank0 + rank1
    assert sum(isinstance(m, ClientHello) for m in all_messages) == 2  # broadcast
    assert sum(isinstance(m, ClientFinished) for m in all_messages) == 2
    assert sorted(time_steps_of(all_messages)) == [1, 2, 3]
    for chunk in chunks_of(all_messages):
        assert chunk.source_ids.tolist() == [3] * len(chunk)
        assert chunk.targets.dtype == np.float32 and chunk.targets.shape[1] == 16
        np.testing.assert_array_equal(chunk.targets[:, 0], chunk.time_steps)
    assert api.messages_sent == 3


def test_client_api_round_robin_starts_at_client_id():
    router = MessageRouter(4)
    api = ClientAPI(router, client_id=2)
    api.init_communication((0.0,), 1, ())
    rank = None
    # The first time step of client 2 must land on rank 2.
    for candidate in range(4):
        if router.pending(candidate):
            drain(router, candidate)
    api.send(1, 0.01, (0.0,), np.zeros(2))
    for candidate in range(4):
        pending = drain(router, candidate)
        if chunks_of(pending):
            rank = candidate
    assert rank == 2


def test_client_api_misuse_raises():
    router = MessageRouter(1)
    api = ClientAPI(router, client_id=0)
    with pytest.raises(RuntimeError):
        api.send(1, 0.01, (0.0,), np.zeros(2))
    api.init_communication((0.0,), 1, ())
    with pytest.raises(RuntimeError):
        api.init_communication((0.0,), 1, ())
    api.finalize_communication()
    with pytest.raises(RuntimeError):
        api.send(1, 0.01, (0.0,), np.zeros(2))


def make_client(router, client_id=0, num_steps=4, fail_at_step=None, checkpoint=True):
    config = HeatEquationConfig(nx=8, ny=8, num_steps=num_steps)
    params = HeatParameters(200.0, 300.0, 250.0, 350.0, 150.0)
    return SimulationClient(
        client_id=client_id,
        parameters=params.as_tuple(),
        solver=HeatEquationSolver(config),
        router=router,
        num_time_steps=num_steps,
        fail_at_step=fail_at_step,
        checkpoint_enabled=checkpoint,
    ), params


def test_simulation_client_streams_every_step():
    router = MessageRouter(2)
    client, params = make_client(router, num_steps=5)
    result = client.run(solver_params=params)
    assert isinstance(result, ClientRunResult)
    assert result.completed and result.steps_sent == 5
    messages = drain(router, 0) + drain(router, 1)
    assert sorted(time_steps_of(messages)) == [1, 2, 3, 4, 5]
    finished = [m for m in messages if isinstance(m, ClientFinished)]
    assert len(finished) == 2


def test_simulation_client_fault_injection_and_checkpointed_restart():
    router = MessageRouter(1)
    client, params = make_client(router, num_steps=6, fail_at_step=3)
    with pytest.raises(SimulationFailure):
        client.run(solver_params=params)
    # Restart: with checkpointing the client resumes after step 3.
    client.prepare_restart()
    result = client.run(solver_params=params)
    assert result.completed
    assert result.restarted_from_step == 3
    assert result.steps_sent == 3  # only steps 4..6 are re-sent
    assert sorted(time_steps_of(drain(router, 0))) == [1, 2, 3, 4, 5, 6]
    assert client.restart_count == 1


def test_simulation_client_restart_without_checkpoint_resends_everything():
    router = MessageRouter(1)
    client, params = make_client(router, num_steps=4, fail_at_step=2, checkpoint=False)
    with pytest.raises(SimulationFailure):
        client.run(solver_params=params)
    client.prepare_restart()
    result = client.run(solver_params=params)
    assert result.steps_sent == 4  # everything re-sent; the server deduplicates
    assert sorted(time_steps_of(drain(router, 0))) == [1, 1, 2, 2, 3, 4]
