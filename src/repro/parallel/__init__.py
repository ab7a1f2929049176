"""Thread-based SPMD/MPI-like substrate and the client/server transport layer.

The paper's framework runs MPI-parallel solver clients and an MPI data-parallel
training server connected through ZeroMQ.  On a single node (no MPI, no
network) this package provides:

* :class:`ThreadCommunicator` — per-rank communicator objects with
  point-to-point and collective operations over in-process queues.
* :class:`SPMDExecutor` — runs one Python callable per rank in a thread pool,
  exactly like ``mpiexec -n`` runs one process per rank.
* block domain partitioning helpers used by the parallel heat solver.
* the :class:`Transport` layer — the ZeroMQ substitute carrying time steps
  from clients to the server's data-aggregator threads, with an in-process
  backend (:class:`MessageRouter`), a multi-process backend streaming packed
  message batches (:class:`MultiprocessTransport`), a shared-memory backend
  with one ordered ring per client and rank (:class:`ShmRingTransport`),
  a TCP backend streaming length-prefixed frames to the server's asyncio
  front door (:class:`TcpTransport`), and the packed batch wire format
  (:func:`pack_many` / :func:`unpack_many`).  Backends are selected through
  the :func:`make_transport` registry with a :class:`TransportConfig`.
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
from repro.parallel.partition import (
    BlockPartition1D,
    BlockPartition2D,
    partition_extent,
    split_grid_2d,
)
from repro.parallel.spmd import SPMDExecutor, SPMDFailure
from repro.parallel.tcp_transport import TcpTransport
from repro.parallel.transport import (
    Connection,
    MessageRouter,
    RouterClosed,
    ShmOptions,
    TcpOptions,
    Transport,
    TransportConfig,
    TransportStats,
    available_backends,
    make_transport,
    register_backend,
)

__all__ = [
    "ThreadCommunicator",
    "CommunicatorGroup",
    "ring_allreduce",
    "tree_broadcast",
    "SPMDExecutor",
    "SPMDFailure",
    "BlockPartition1D",
    "BlockPartition2D",
    "partition_extent",
    "split_grid_2d",
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
    "ShmOptions",
    "TcpOptions",
    "available_backends",
    "register_backend",
    "make_transport",
    "pack_many",
    "unpack_many",
    "WireFormatError",
]
