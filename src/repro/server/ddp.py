"""Synchronous data-parallel training primitives (the paper's DDP substitute).

The paper uses PyTorch Distributed: every server process holds an identical
copy of the network, trains it on different data and all-reduces the gradient
after every batch.  The functions here implement exactly that over the
thread communicator: :func:`broadcast_parameters` makes the replicas identical
at start-up, :func:`sync_gradients` averages the gradients with a ring
all-reduce, and :func:`all_ranks_have_data` is the per-batch vote on whether
training continues.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.parallel.collectives import VOTE_TAGS, ring_allreduce, tree_broadcast
from repro.parallel.communicator import ThreadCommunicator

Array = np.ndarray


def broadcast_parameters(model: Module, comm: ThreadCommunicator, root: int = 0) -> None:
    """Copy the parameters of rank ``root``'s replica into every other replica.

    One broadcast of the model's flat parameter vector, not one per parameter.
    """
    if comm.size == 1:
        return
    flat = model.flat_parameters()
    value = tree_broadcast(comm, flat if comm.rank == root else None, root=root)
    if comm.rank != root:
        flat[...] = value


def sync_gradients(model: Module, comm: ThreadCommunicator, average: bool = True) -> None:
    """All-reduce (average) the gradients of every parameter across ranks.

    The model's gradients already are one flat vector (its arena's), so one
    ring all-reduce per batch suffices — how production frameworks bucket
    gradients — and the result is written straight back into that vector.
    """
    if comm.size == 1:
        return
    flat = model.flat_gradients()
    flat[...] = ring_allreduce(comm, flat, average=average)


def all_ranks_have_data(have_data: bool, comm: ThreadCommunicator) -> bool:
    """Whether every rank drew a batch: the sum of the ranks' 0/1 flags
    equals the world size.

    A ring all-reduce on the vote's own tag range, so a rank out of step
    with a peer that is inside :func:`sync_gradients` times out with
    :class:`~repro.utils.exceptions.CommunicatorError` instead of mixing the
    vote into a gradient chunk.
    """
    if comm.size == 1:
        return have_data
    votes = ring_allreduce(comm, np.array([1.0 if have_data else 0.0]), tags=VOTE_TAGS)
    return int(votes[0]) == comm.size
