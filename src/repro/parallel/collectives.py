"""The collectives of data-parallel training: ring all-reduce, tree broadcast.

:func:`ring_allreduce` is the bandwidth-optimal all-reduce of real
data-parallel frameworks (PyTorch DDP / NCCL); :mod:`repro.server.ddp` uses
it to average gradients and to take the ranks' stop vote.
:func:`tree_broadcast` ships the initial weights.  Both are built on the
communicator's point-to-point ``sendrecv``/``send``/``recv``.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from repro.parallel.communicator import ThreadCommunicator

Array = np.ndarray

#: A ring all-reduce over ``size`` ranks uses tags ``[base, base + 2 * size)``.
#: Gradient averaging and the stop vote run on disjoint ranges, so a rank
#: that votes while a peer is inside a gradient all-reduce waits and times
#: out instead of summing a vote into a gradient chunk.
GRADIENT_TAGS = 10_000
VOTE_TAGS = 15_000
_TREE_TAG = 20_000


def _ring_chunks(vector: Array, size: int) -> List[slice]:
    """Split a flat vector into ``size`` contiguous chunk slices."""
    n = vector.size
    base, remainder = divmod(n, size)
    slices: List[slice] = []
    start = 0
    for rank in range(size):
        count = base + (1 if rank < remainder else 0)
        slices.append(slice(start, start + count))
        start += count
    return slices


def ring_allreduce(
    comm: ThreadCommunicator,
    vector: Array,
    average: bool = False,
    tags: int = GRADIENT_TAGS,
) -> Array:
    """Ring all-reduce of a flat numpy vector.

    The algorithm runs ``size - 1`` scatter-reduce steps followed by
    ``size - 1`` all-gather steps, sending one chunk per step to the next rank
    in the ring.  Returns a new array with the element-wise sum (or mean when
    ``average`` is true) across ranks.  ``tags`` is the base of the tag range
    the ring uses (see :data:`GRADIENT_TAGS`).
    """
    vector = np.asarray(vector)
    if vector.ndim != 1:
        raise ValueError("ring_allreduce expects a flat (1-D) vector")
    size = comm.size
    result = vector.astype(np.float64, copy=True)
    if size == 1:
        return result

    chunks = _ring_chunks(result, size)
    rank = comm.rank
    next_rank = (rank + 1) % size
    prev_rank = (rank - 1) % size

    # Scatter-reduce phase: after size-1 steps, chunk (rank+1) % size holds the
    # full sum on this rank.
    for step in range(size - 1):
        send_idx = (rank - step) % size
        recv_idx = (rank - step - 1) % size
        incoming = comm.sendrecv(
            result[chunks[send_idx]],
            dest=next_rank,
            source=prev_rank,
            send_tag=tags + step,
            recv_tag=tags + step,
        )
        result[chunks[recv_idx]] += incoming

    # All-gather phase: circulate the reduced chunks.
    for step in range(size - 1):
        send_idx = (rank - step + 1) % size
        recv_idx = (rank - step) % size
        incoming = comm.sendrecv(
            result[chunks[send_idx]],
            dest=next_rank,
            source=prev_rank,
            send_tag=tags + size + step,
            recv_tag=tags + size + step,
        )
        result[chunks[recv_idx]] = incoming

    if average:
        result /= size
    return result


def tree_broadcast(comm: ThreadCommunicator, payload: Any, root: int = 0) -> Any:
    """Binomial-tree broadcast (log2(size) rounds).

    The communication pattern of production MPI implementations: in round
    ``k`` every rank that already holds the value sends it to the rank
    ``2**k`` further on.  Used to broadcast the initial model weights to
    every data-parallel worker.
    """
    size = comm.size
    rank = comm.rank
    # Work in a rotated rank space where the root is virtual rank 0.
    virtual = (rank - root) % size

    mask = 1
    value = payload if rank == root else None
    received = rank == root
    while mask < size:
        if virtual < mask:
            partner_virtual = virtual + mask
            if partner_virtual < size and received:
                partner = (partner_virtual + root) % size
                comm.send(value, partner, tag=_TREE_TAG + mask)
        elif virtual < 2 * mask and not received:
            partner = ((virtual - mask) + root) % size
            value = comm.recv(partner, tag=_TREE_TAG + mask)
            received = True
        mask <<= 1
    comm.barrier()
    return value
