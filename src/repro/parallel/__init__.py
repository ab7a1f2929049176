"""Thread-based SPMD/MPI-like substrate and the client/server transport layer.

The paper's framework runs MPI-parallel solver clients and an MPI data-parallel
training server connected through ZeroMQ.  On a single node (no MPI, no
network) this package provides:

* :class:`ThreadCommunicator` — per-rank communicator objects with
  point-to-point operations and a barrier over in-process queues.
* :func:`ring_allreduce` / :func:`tree_broadcast` — the collectives the
  data-parallel training ranks use (gradient averaging, the stop vote and
  the initial weights).
* :class:`SPMDExecutor` — runs one Python callable per rank in a thread pool,
  exactly like ``mpiexec -n`` runs one process per rank.
* the :class:`Transport` layer — the ZeroMQ substitute carrying time steps
  from clients to the server's data-aggregator threads, with an in-process
  backend (:class:`MessageRouter`), a multi-process backend streaming packed
  message batches (:class:`MultiprocessTransport`), a shared-memory backend
  with one ordered ring per client and rank (:class:`ShmRingTransport`),
  a TCP backend streaming length-prefixed frames to the server's asyncio
  front door (:class:`TcpTransport`), and the packed batch wire format
  (:func:`pack_many` / :func:`unpack_many`).  :func:`make_transport` builds
  one of the four backends by name from a :class:`TransportConfig`.
"""

from repro.parallel.collectives import ring_allreduce, tree_broadcast
from repro.parallel.communicator import CommunicatorGroup, ThreadCommunicator
from repro.parallel.messages import (
    ClientFinished,
    ClientHello,
    Message,
    TimeStepMessage,
    WireFormatError,
    pack_many,
    unpack_many,
)
from repro.parallel.mp_transport import MultiprocessTransport
from repro.parallel.shm_ring import ShmRing, ShmRingTransport
from repro.parallel.spmd import SPMDExecutor, SPMDFailure
from repro.parallel.tcp_transport import TcpTransport
from repro.parallel.transport import (
    Connection,
    MessageRouter,
    RouterClosed,
    TcpOptions,
    Transport,
    TransportConfig,
    TransportStats,
    make_transport,
)

__all__ = [
    "ThreadCommunicator",
    "CommunicatorGroup",
    "ring_allreduce",
    "tree_broadcast",
    "SPMDExecutor",
    "SPMDFailure",
    "Message",
    "ClientHello",
    "ClientFinished",
    "TimeStepMessage",
    "MessageRouter",
    "MultiprocessTransport",
    "ShmRing",
    "ShmRingTransport",
    "TcpTransport",
    "Connection",
    "RouterClosed",
    "Transport",
    "TransportStats",
    "TransportConfig",
    "TcpOptions",
    "make_transport",
    "pack_many",
    "unpack_many",
    "WireFormatError",
]
