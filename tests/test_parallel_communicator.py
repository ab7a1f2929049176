"""Tests for the thread communicator and SPMD executor."""

import numpy as np
import pytest

from repro.parallel.communicator import CommunicatorGroup
from repro.parallel.spmd import SPMDExecutor, SPMDFailure
from repro.utils.exceptions import CommunicatorError


def test_group_size_validation():
    with pytest.raises(CommunicatorError):
        CommunicatorGroup(0)


def test_send_recv_point_to_point(run_spmd):
    def main(comm):
        if comm.rank == 0:
            comm.send({"value": 42}, dest=1)
            return None
        return comm.recv(0)

    results = run_spmd(2, main)
    assert results[1] == {"value": 42}


def test_send_copies_numpy_arrays(run_spmd):
    def main(comm):
        if comm.rank == 0:
            data = np.ones(4)
            comm.send(data, dest=1)
            data[...] = -1  # mutation after send must not affect the receiver
            return None
        return comm.recv(0)

    results = run_spmd(2, main)
    assert np.array_equal(results[1], np.ones(4))


def test_invalid_rank_raises():
    comm = CommunicatorGroup(2).rank_communicators()[0]
    with pytest.raises(CommunicatorError):
        comm.send(1, dest=5)
    with pytest.raises(CommunicatorError):
        comm.recv(-1)


def test_sendrecv_ring_shift(run_spmd):
    def main(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        return comm.sendrecv(comm.rank, dest=right, source=left)

    results = run_spmd(4, main)
    assert results == [3, 0, 1, 2]


def test_barrier_holds_every_rank_until_all_arrive(run_spmd):
    arrived = []

    def main(comm):
        arrived.append(comm.rank)
        comm.barrier()
        return len(arrived)

    assert run_spmd(3, main) == [3, 3, 3]


def test_recv_times_out_on_a_finite_timeout_group():
    comm = CommunicatorGroup(2, timeout=0.05).rank_communicators()[0]
    with pytest.raises(CommunicatorError, match="timed out"):
        comm.recv(1)


def test_spmd_failure_collects_rank_errors():
    def main(comm):
        if comm.rank == 1:
            raise ValueError("boom")
        return comm.rank

    with pytest.raises(SPMDFailure) as excinfo:
        SPMDExecutor(3).run(main)
    assert 1 in excinfo.value.errors
    assert isinstance(excinfo.value.errors[1], ValueError)
