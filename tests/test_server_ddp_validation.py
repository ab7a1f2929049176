"""Tests for data-parallel gradient synchronisation and validation."""

import numpy as np
import pytest

from repro.nn import Adam, MLPConfig, MSELoss, Sequential, build_mlp
from repro.parallel.collectives import ring_allreduce
from repro.parallel.spmd import SPMDExecutor, SPMDFailure
from repro.server.ddp import all_ranks_have_data, broadcast_parameters, sync_gradients
from repro.server.validation import ValidationSet, Validator
from repro.utils.exceptions import CommunicatorError


def make_model(seed):
    return build_mlp(MLPConfig(in_features=4, hidden_sizes=(8,), out_features=2, seed=seed))


def parameters_in_sync(model, comm, atol=1e-6):
    """Whether every rank holds (numerically) the same parameters as the mean."""
    if comm.size == 1:
        return True
    flat = model.flat_parameters()
    mean = ring_allreduce(comm, flat, average=True)
    return bool(np.allclose(flat, mean, atol=atol))


def test_broadcast_parameters_makes_replicas_identical(run_spmd):
    def main(comm):
        model = make_model(seed=comm.rank)  # deliberately different weights
        broadcast_parameters(model, comm, root=0)
        return [param.data.copy() for param in model.parameters()]

    states = run_spmd(3, main)
    for state in states[1:]:
        for root, replica in zip(states[0], state, strict=True):
            assert np.allclose(root, replica)


def test_sync_gradients_averages_across_ranks(run_spmd):
    rng = np.random.default_rng(0)
    data = [rng.random((6, 4)) for _ in range(2)]
    targets = [rng.random((6, 2)) for _ in range(2)]

    def main(comm):
        model = make_model(seed=0)
        loss = MSELoss()
        model.zero_grad()
        out = model.forward(data[comm.rank])
        loss.forward(out, targets[comm.rank])
        model.backward(loss.backward())
        sync_gradients(model, comm, average=True)
        return model.flat_gradients()

    grads = run_spmd(2, main)
    assert np.allclose(grads[0], grads[1])

    # Reference: average of the two single-rank gradients.
    reference = []
    for rank in range(2):
        model = make_model(seed=0)
        loss = MSELoss()
        model.zero_grad()
        loss.forward(model.forward(data[rank]), targets[rank])
        model.backward(loss.backward())
        reference.append(model.flat_gradients())
    assert np.allclose(grads[0], np.mean(reference, axis=0), atol=1e-10)


def test_ddp_training_equals_large_batch_training(run_spmd):
    """2-rank DDP with per-rank batch B equals single training on batch 2B."""
    rng = np.random.default_rng(1)
    inputs = rng.random((8, 4)).astype(np.float64)
    targets = rng.random((8, 2)).astype(np.float64)

    def ddp_main(comm):
        model = make_model(seed=0)
        optimizer = Adam(model.parameters(), lr=1e-3)
        loss = MSELoss()
        shard = slice(comm.rank * 4, (comm.rank + 1) * 4)
        for _ in range(5):
            model.zero_grad()
            loss.forward(model.forward(inputs[shard]), targets[shard])
            model.backward(loss.backward())
            sync_gradients(model, comm, average=True)
            optimizer.step()
        return [param.data.copy() for param in model.parameters()]

    ddp_states = run_spmd(2, ddp_main)

    reference = make_model(seed=0)
    optimizer = Adam(reference.parameters(), lr=1e-3)
    loss = MSELoss()
    for _ in range(5):
        reference.zero_grad()
        loss.forward(reference.forward(inputs), targets)
        reference.backward(loss.backward())
        optimizer.step()

    for index, param in enumerate(reference.parameters()):
        assert np.allclose(ddp_states[0][index], param.data, atol=1e-8)
        assert np.allclose(ddp_states[1][index], param.data, atol=1e-8)


def test_replicas_stay_bit_identical_over_20_synced_steps(run_spmd):
    """Different start weights, different data per rank: after one flat broadcast
    and 20 steps of in-place gradient all-reduce the replicas are the same bits."""
    rng = np.random.default_rng(2)
    inputs = rng.random((2, 20, 5, 4))
    targets = rng.random((2, 20, 5, 2))

    def main(comm):
        model = make_model(seed=comm.rank).astype(np.float32)
        optimizer = Adam(model.parameters(), lr=1e-2)
        loss = MSELoss()
        broadcast_parameters(model, comm, root=0)
        for step in range(20):
            model.zero_grad()
            loss.forward(
                model.forward(inputs[comm.rank, step]),
                targets[comm.rank, step].astype(np.float32),
            )
            model.backward(loss.backward())
            gradients = model.flat_gradients()
            sync_gradients(model, comm, average=True)
            # reduced in place: still the arena's vector, still what the layers wrote into
            assert np.shares_memory(gradients, model.parameters()[0].grad)
            optimizer.step()
        return model.flat_parameters().copy(), parameters_in_sync(model, comm, atol=0.0)

    (flat0, sync0), (flat1, sync1) = run_spmd(2, main)
    assert sync0 and sync1
    assert flat0.dtype == np.float32 and flat0.tobytes() == flat1.tobytes()
    assert not np.array_equal(flat0, make_model(seed=0).flat_parameters())  # it trained


def test_parameters_in_sync_detects_divergence(run_spmd):
    def main(comm):
        model = make_model(seed=0)
        in_sync_before = parameters_in_sync(model, comm)
        if comm.rank == 1:
            model.parameters()[0].data += 1.0
        return in_sync_before, parameters_in_sync(model, comm)

    results = run_spmd(2, main)
    assert all(before for before, _ in results)
    assert not any(after for _, after in results)


@pytest.mark.parametrize("size", [2, 4])
def test_all_ranks_have_data_sums_the_flags(size, run_spmd):
    def main(comm):
        return all_ranks_have_data(True, comm), all_ranks_have_data(comm.rank != 1, comm)

    assert run_spmd(size, main) == [(True, False)] * size


@pytest.mark.parametrize("size", [2, 4])
def test_vote_raced_against_gradient_sync_fails_instead_of_returning(size):
    """Rank 0 votes while its peers are inside ``sync_gradients``.  The vote
    runs on tags of its own, so no rank sums a vote into a gradient chunk:
    every rank waits and fails with ``CommunicatorError``."""

    def main(comm):
        if comm.rank == 0:
            return all_ranks_have_data(True, comm)
        model = make_model(seed=0)
        sync_gradients(model, comm, average=True)
        return model.flat_gradients().copy()

    with pytest.raises(SPMDFailure) as excinfo:
        SPMDExecutor(size, timeout=0.5).run(main)
    errors = excinfo.value.errors
    assert sorted(errors) == list(range(size))
    assert all(isinstance(error, CommunicatorError) for error in errors.values())


def test_validation_set_construction_and_validator():
    inputs = np.array([[1, 2, 3, 4, 5, 0.1], [1, 2, 3, 4, 5, 0.2],
                       [5, 4, 3, 2, 1, 0.1], [5, 4, 3, 2, 1, 0.2]])
    targets = np.concatenate([np.ones((2, 9)), np.zeros((2, 9))])
    dataset = ValidationSet(inputs=inputs, targets=targets)
    assert dataset.inputs.shape == (4, 6)
    assert dataset.targets.shape == (4, 9)

    class ZeroModel(Sequential):
        def forward(self, inputs):
            return np.zeros((inputs.shape[0], 9), dtype=np.float32)

    validator = Validator(dataset, batch_size=3)
    loss = validator.evaluate(ZeroModel())
    # Half the targets are ones, half zeros -> MSE = 0.5.
    assert loss == pytest.approx(0.5)


def test_validation_set_validation_errors():
    with pytest.raises(ValueError):
        ValidationSet(inputs=np.zeros((2, 3)), targets=np.zeros((3, 4)))
    with pytest.raises(ValueError):
        ValidationSet(inputs=np.zeros((0, 3)), targets=np.zeros((0, 4)))
    with pytest.raises(ValueError):
        Validator(ValidationSet(np.zeros((2, 3)), np.zeros((2, 4))), batch_size=0)
