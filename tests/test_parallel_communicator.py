"""Tests for the thread communicator and SPMD executor."""

import numpy as np
import pytest

from repro.parallel.communicator import CommunicatorGroup
from repro.parallel.spmd import SPMDExecutor, SPMDFailure, run_spmd
from repro.utils.exceptions import CommunicatorError


def test_group_size_validation():
    with pytest.raises(CommunicatorError):
        CommunicatorGroup(0)


def test_send_recv_point_to_point():
    def main(comm):
        if comm.rank == 0:
            comm.send({"value": 42}, dest=1)
            return None
        return comm.recv(0)

    results = run_spmd(2, main)
    assert results[1] == {"value": 42}


def test_send_copies_numpy_arrays():
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


def test_bcast_from_nonzero_root():
    def main(comm):
        payload = f"hello-{comm.rank}" if comm.rank == 2 else None
        return comm.bcast(payload, root=2)

    assert run_spmd(3, main) == ["hello-2"] * 3


def test_gather_orders_by_rank():
    def main(comm):
        return comm.gather(comm.rank * 10, root=0)

    results = run_spmd(4, main)
    assert results[0] == [0, 10, 20, 30]
    assert results[1] is None


def test_scatter_distributes_values():
    def main(comm):
        values = [f"item-{i}" for i in range(comm.size)] if comm.rank == 1 else None
        return comm.scatter(values, root=1)

    assert run_spmd(3, main) == ["item-0", "item-1", "item-2"]


def test_scatter_wrong_length_raises():
    def main(comm):
        values = [1] if comm.rank == 0 else None
        return comm.scatter(values, root=0)

    # Rank 1 waits for a value that never comes: bound that wait (the default
    # 120 s is also pytest's faulthandler_timeout, which would dump every run).
    with pytest.raises(SPMDFailure):
        run_spmd(2, main, timeout=1.0)


def test_allgather():
    def main(comm):
        return comm.allgather(comm.rank**2)

    results = run_spmd(4, main)
    assert all(r == [0, 1, 4, 9] for r in results)


def test_reduce_and_allreduce_sum():
    def main(comm):
        local = np.full(3, float(comm.rank + 1))
        reduced = comm.reduce(local, op="sum", root=0)
        all_reduced = comm.allreduce(local, op="sum")
        return reduced, all_reduced

    results = run_spmd(3, main)
    assert np.array_equal(results[0][0], np.full(3, 6.0))
    assert results[1][0] is None
    assert all(np.array_equal(r[1], np.full(3, 6.0)) for r in results)


@pytest.mark.parametrize("op,expected", [("max", 2.0), ("min", 0.0), ("prod", 0.0)])
def test_allreduce_other_ops(op, expected):
    def main(comm):
        return comm.allreduce(np.array(float(comm.rank)), op=op)

    results = run_spmd(3, main)
    assert all(float(r) == expected for r in results)


def test_allreduce_unknown_op():
    def main(comm):
        return comm.allreduce(np.array(1.0), op="median")

    with pytest.raises(SPMDFailure):
        run_spmd(2, main)


def test_sendrecv_ring_shift():
    def main(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        return comm.sendrecv(comm.rank, dest=right, source=left)

    results = run_spmd(4, main)
    assert results == [3, 0, 1, 2]


def test_split_workload_covers_range():
    def main(comm):
        return list(comm.split_workload(10))

    results = run_spmd(3, main)
    flattened = [item for chunk in results for item in chunk]
    assert flattened == list(range(10))
    assert max(len(c) for c in results) - min(len(c) for c in results) <= 1


def test_spmd_failure_collects_rank_errors():
    def main(comm):
        if comm.rank == 1:
            raise ValueError("boom")
        return comm.rank

    with pytest.raises(SPMDFailure) as excinfo:
        SPMDExecutor(3).run(main)
    assert 1 in excinfo.value.errors
    assert isinstance(excinfo.value.errors[1], ValueError)


def test_spmd_result_indexing():
    result = SPMDExecutor(2).run(lambda comm: comm.rank + 100)
    assert result[0] == 100 and result[1] == 101
    assert len(result) == 2
    assert result.elapsed >= 0.0
