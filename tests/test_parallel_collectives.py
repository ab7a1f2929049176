"""Tests for the ring all-reduce and tree broadcast."""

import numpy as np
import pytest

from repro.parallel.collectives import ring_allreduce, tree_broadcast
from repro.parallel.spmd import SPMDFailure


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_ring_allreduce_matches_sum(size, run_spmd):
    vectors = [np.random.default_rng(i).random(23) for i in range(size)]
    expected = np.sum(vectors, axis=0)

    def main(comm):
        return ring_allreduce(comm, vectors[comm.rank])

    results = run_spmd(size, main)
    for result in results:
        assert np.allclose(result, expected)


@pytest.mark.parametrize("size", [2, 4])
def test_ring_allreduce_average(size, run_spmd):
    vectors = [np.full(7, float(rank)) for rank in range(size)]
    expected = np.mean(vectors, axis=0)

    def main(comm):
        return ring_allreduce(comm, vectors[comm.rank], average=True)

    for result in run_spmd(size, main):
        assert np.allclose(result, expected)


def test_ring_allreduce_vector_shorter_than_ranks(run_spmd):
    """Vectors with fewer elements than ranks exercise empty chunks."""
    size = 4

    def main(comm):
        return ring_allreduce(comm, np.array([float(comm.rank)]))

    for result in run_spmd(size, main):
        assert np.allclose(result, np.array([6.0]))


def test_ring_allreduce_rejects_matrices(run_spmd):
    def main(comm):
        return ring_allreduce(comm, np.zeros((2, 2)))

    with pytest.raises(SPMDFailure):
        run_spmd(2, main)


def test_ring_allreduce_single_rank_identity(run_spmd):
    def main(comm):
        return ring_allreduce(comm, np.array([1.0, 2.0]))

    assert np.allclose(run_spmd(1, main)[0], [1.0, 2.0])


@pytest.mark.parametrize("size,root", [(2, 0), (3, 1), (4, 3), (5, 2)])
def test_tree_broadcast_delivers_to_all(size, root, run_spmd):
    payload = {"weights": [1.0, 2.0, 3.0]}

    def main(comm):
        value = payload if comm.rank == root else None
        return tree_broadcast(comm, value, root=root)

    results = run_spmd(size, main)
    assert all(result == payload for result in results)


def test_tree_broadcast_numpy_payload(run_spmd):
    data = np.arange(10.0)

    def main(comm):
        value = data if comm.rank == 0 else None
        return tree_broadcast(comm, value, root=0)

    for result in run_spmd(4, main):
        assert np.array_equal(result, data)
