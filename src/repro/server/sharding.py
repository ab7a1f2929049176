"""Sharded serving tier: N independent server shards behind one study.

One aggregator/trainer pair per rank is the throughput ceiling after the
transport work: a single server drains one endpoint no faster than one host
can.  This module scales the serving tier *out* instead of up —
:class:`ShardManager` runs ``num_shards`` independent
:class:`~repro.server.server.TrainingServer` instances, each with its own
transport endpoint, aggregator threads, buffer and training workers, and a
:class:`HashRing` routes every client to exactly one shard at ``connect()``:

* **Routing is consistent and deterministic.**  The ring hashes each shard
  into ``hash_replicas`` virtual points; a client id hashes to the first
  point clockwise.  A killed client that the launcher restarts hashes to the
  *same* shard, so the per-shard message log deduplicates its resend and the
  shm slot-lease table re-leases its ring unchanged — the PR 5 elastic
  join/leave protocol works per shard without modification.
* **Placement stays bounded on join/leave.**  Adding or removing a shard
  only remaps the clients whose arc the change touches (about ``1/N`` of
  them); every other client keeps its shard, its dedup log and its lease.
* **The study still reports one coherent result.**  :func:`aggregate_transport_stats`
  folds per-shard :class:`~repro.parallel.transport.TransportStats` into
  cluster totals keyed by global rank, and
  :func:`~repro.core.metrics.merge_worker_metrics` grows a shard dimension,
  so :class:`~repro.server.server.ServerResult` keeps its shape.

For simulated-cluster experiments, :func:`place_shards` submits one job per
shard to the :class:`~repro.cluster.scheduler.BatchScheduler`, and
:func:`estimate_sharded_throughput` evaluates the saturation model of the
tier (each shard serves ``min(offered load, per-shard rate)``) over the real
ring assignment — the model behind the scaling trajectory in
``benchmarks/test_bench_sharding.py``.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cluster.resources import ClusterSpec
from repro.cluster.scheduler import BatchScheduler
from repro.core.metrics import merge_worker_metrics
from repro.nn.losses import Loss, MSELoss
from repro.nn.module import Module
from repro.nn.optim import Optimizer
from repro.nn.schedulers import LRScheduler
from repro.parallel.transport import (
    Connection,
    Message,
    Transport,
    TransportConfig,
    TransportStats,
    make_transport,
)
from repro.server.server import ServerConfig, ServerResult, TrainingServer
from repro.server.validation import ValidationSet
from repro.utils.constants import DEFAULT_HASH_RING_REPLICAS
from repro.utils.exceptions import ConfigurationError
from repro.utils.logging import get_logger

logger = get_logger("server.sharding")


# ------------------------------------------------------------------ hash ring
def _hash64(key: str) -> int:
    """64-bit stable hash of ``key`` (blake2b; never Python's salted hash)."""
    return int.from_bytes(hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")


class HashRing:
    """Consistent-hash ring mapping client ids onto shard ids.

    Each shard contributes ``replicas`` virtual points; a client id is owned
    by the first point at or clockwise after its own hash.  Placement is a
    pure function of ``(shard ids, replicas, client id)``: every process of
    a study — launcher, forked clients, server shards — computes the same
    assignment without coordination, and a restarted client always returns
    to the shard that holds its dedup log and slot lease.
    """

    def __init__(self, shards: Union[int, Iterable[int]],
                 replicas: int = DEFAULT_HASH_RING_REPLICAS) -> None:
        if isinstance(shards, int):
            shard_ids: Tuple[int, ...] = tuple(range(shards))
        else:
            shard_ids = tuple(int(shard) for shard in shards)
            if len(set(shard_ids)) != len(shard_ids):
                raise ConfigurationError("duplicate shard ids on the hash ring")
            shard_ids = tuple(sorted(shard_ids))
        if not shard_ids:
            raise ConfigurationError("a hash ring needs at least one shard")
        if replicas <= 0:
            raise ConfigurationError("hash ring replicas must be positive")
        self.shards = shard_ids
        self.replicas = int(replicas)
        points = [
            (_hash64(f"shard-{shard}/{replica}"), shard)
            for shard in shard_ids
            for replica in range(self.replicas)
        ]
        points.sort()
        self._points = points
        self._keys = [point[0] for point in points]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_for(self, client_id: int) -> int:
        """The shard owning ``client_id`` (deterministic across processes)."""
        key = _hash64(f"client-{int(client_id)}")
        index = bisect.bisect_right(self._keys, key)
        if index == len(self._keys):
            index = 0
        return self._points[index][1]

    def partition(self, client_ids: Iterable[int]) -> Dict[int, List[int]]:
        """Client ids grouped by owning shard; every shard key is present."""
        assignment: Dict[int, List[int]] = {shard: [] for shard in self.shards}
        for client_id in client_ids:
            assignment[self.shard_for(client_id)].append(int(client_id))
        return assignment

    def with_shard(self, shard: int) -> "HashRing":
        """A new ring with ``shard`` joined (the bounded-remap property)."""
        return HashRing((*self.shards, int(shard)), replicas=self.replicas)

    def without_shard(self, shard: int) -> "HashRing":
        """A new ring with ``shard`` departed."""
        if int(shard) not in self.shards:
            raise ConfigurationError(f"shard {shard} is not on the ring")
        return HashRing(
            (s for s in self.shards if s != int(shard)), replicas=self.replicas
        )


# ----------------------------------------------------------- sharded transport
class ShardedTransport(Transport):
    """Client-routing front over the per-shard transports.

    Clients use this object exactly like a single transport: ``connect``
    resolves the owning shard on the hash ring and returns a
    :class:`~repro.parallel.transport.Connection` bound to that shard's own
    transport, so every subsequent push lands on the shard's channels
    without further routing.  Server-side draining happens *inside* each
    shard (its aggregators hold the shard transport directly);
    :meth:`poll_batches` here sweeps the shards for tooling and tests.
    """

    def __init__(self, shards: Sequence[Transport], ring: HashRing) -> None:
        if not shards:
            raise ConfigurationError("a sharded transport needs at least one shard")
        if len(shards) != ring.num_shards:
            raise ConfigurationError(
                f"{len(shards)} shard transports for a {ring.num_shards}-shard ring"
            )
        rank_counts = {transport.num_server_ranks for transport in shards}
        if len(rank_counts) != 1:
            raise ConfigurationError("every shard must expose the same rank count")
        self.shards = list(shards)
        self.ring = ring
        self.num_server_ranks = rank_counts.pop()
        #: Kills recorded through :meth:`record_unresponsive_kill` — the
        #: launcher reports them without a client id, so they are counted
        #: here and folded into the aggregate stats.
        self._kill_lock = threading.Lock()
        self._unresponsive_kills = 0

    # ----------------------------------------------------------------- routing
    def shard_for(self, client_id: int) -> int:
        """Ring lookup: the shard index owning ``client_id``."""
        return self.ring.shard_for(client_id)

    def transport_for(self, client_id: int) -> Transport:
        """The shard transport owning ``client_id``."""
        return self.shards[self.ring.shard_for(client_id)]

    # ------------------------------------------------------------------ client
    def connect(self, client_id: int, batch_size: int = 1) -> Connection:
        return self.transport_for(client_id).connect(client_id, batch_size=batch_size)

    def push_many(self, rank: int, messages: List[Message],
                  timeout: float | None = None) -> None:
        # Routed message by message: a mixed-client batch may span shards.
        # Study traffic never takes this path (clients push through the
        # connection returned by ``connect``, already bound to one shard).
        for message in messages:
            self.transport_for(message.client_id).push_many(rank, [message], timeout=timeout)

    def lease_client(self, client_id: int) -> int:
        return self.transport_for(client_id).lease_client(client_id)

    def release_client(self, client_id: int) -> None:
        self.transport_for(client_id).release_client(client_id)

    def record_unresponsive_kill(self) -> None:
        with self._kill_lock:
            self._unresponsive_kills += 1

    @property
    def unresponsive_kills_recorded(self) -> int:
        with self._kill_lock:
            return self._unresponsive_kills

    # ------------------------------------------------------------------ server
    def poll_batches(self, rank: int, max_messages: int = 64,
                     timeout: float | None = 0.05) -> list:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            for transport in self.shards:
                items = transport.poll_batches(rank, max_messages=max_messages, timeout=0)
                if items:
                    return items
            if deadline is not None and time.monotonic() >= deadline:
                return []
            time.sleep(0.001)

    def pending(self, rank: int) -> int:
        return sum(transport.pending(rank) for transport in self.shards)

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        for transport in self.shards:
            transport.close()

    def shutdown(self) -> None:
        for transport in self.shards:
            transport.shutdown()

    @property
    def closed(self) -> bool:
        return all(transport.closed for transport in self.shards)

    @property
    def stats(self) -> TransportStats:
        """Cluster totals over every shard, keyed by global rank."""
        return aggregate_transport_stats(
            [transport.stats for transport in self.shards],
            ranks_per_shard=self.num_server_ranks,
            extra_kills=self.unresponsive_kills_recorded,
        )


def aggregate_transport_stats(
    per_shard: Sequence[TransportStats],
    ranks_per_shard: int,
    extra_kills: int = 0,
) -> TransportStats:
    """Fold per-shard transport stats into one cluster-level snapshot.

    Scalar counters sum; the per-rank maps are re-keyed by *global* rank
    ``shard * ranks_per_shard + rank`` so no two shards collide and the
    aggregate still breaks down per aggregator thread.  ``extra_kills``
    adds kills recorded at the sharded front (the launcher's watchdog does
    not name a shard when it reports one).
    """
    total = TransportStats()
    for shard_index, stats in enumerate(per_shard):
        total.messages_routed += stats.messages_routed
        total.bytes_routed += stats.bytes_routed
        total.dropped_messages += stats.dropped_messages
        total.torn_batches += stats.torn_batches
        total.unresponsive_kills += stats.unresponsive_kills
        base = shard_index * int(ranks_per_shard)
        for rank, count in stats.per_rank_messages.items():
            total.per_rank_messages[base + rank] = count
        for rank, depth in stats.ring_depth_high_water.items():
            total.ring_depth_high_water[base + rank] = depth
    total.unresponsive_kills += int(extra_kills)
    return total


# ---------------------------------------------------------- heartbeat routing
class ShardedHeartbeatMonitor:
    """Routes the launcher's liveness queries to the owning shard's monitor.

    Each shard's aggregators feed their own
    :class:`~repro.server.fault.HeartbeatMonitor`; the launcher's watchdog
    holds this router and transparently asks the right shard, so the
    kill-and-restart protocol is unchanged by sharding.
    """

    def __init__(self, ring: HashRing, monitors: Sequence[object]) -> None:
        if len(monitors) != ring.num_shards:
            raise ConfigurationError(
                f"{len(monitors)} monitors for a {ring.num_shards}-shard ring"
            )
        self._ring = ring
        self._monitors = list(monitors)

    def _monitor(self, client_id: int):
        return self._monitors[self._ring.shard_for(client_id)]

    def silence(self, client_id: int, now: float | None = None) -> float | None:
        return self._monitor(client_id).silence(client_id, now=now)

    def is_finished(self, client_id: int) -> bool:
        return self._monitor(client_id).is_finished(client_id)


# --------------------------------------------------------------- shard manager
class ShardManager:
    """Run ``num_shards`` independent training servers as one serving tier.

    The manager builds one transport and one
    :class:`~repro.server.server.TrainingServer` per shard from the shared
    base configuration (each shard's ``expected_clients`` comes from the
    ring assignment; buffer seeds and checkpoint directories are offset per
    shard so shards never alias), exposes the client-facing
    :class:`ShardedTransport` as :attr:`router` and the launcher-facing
    :class:`ShardedHeartbeatMonitor` as :attr:`heartbeat_monitor`, and
    merges the per-shard :class:`~repro.server.server.ServerResult` values
    into one study-level result: totals sum, stats aggregate by global
    rank, and the returned model is the best shard's (matching the
    ``best_val_mse`` the merged summary reports).
    """

    def __init__(
        self,
        server_config: ServerConfig,
        transport_config: TransportConfig,
        model_factory: Callable[[], Module],
        client_ids: Sequence[int],
        validation: Optional[ValidationSet] = None,
        max_concurrent_clients: int = 8,
        loss_factory: Callable[[], Loss] = MSELoss,
        optimizer_factory: Optional[Callable[[Module], Optimizer]] = None,
        scheduler_factory: Optional[Callable[[Optimizer], LRScheduler]] = None,
    ) -> None:
        self.num_shards = transport_config.shard.num_shards
        self.server_config = server_config
        self.transport_config = transport_config
        self.ring = HashRing(self.num_shards, replicas=transport_config.shard.hash_replicas)
        self.assignments = self.ring.partition(client_ids)
        self.transports: List[Transport] = [
            make_transport(
                transport_config.for_shard(index),
                server_config.num_ranks,
                max_concurrent_clients=max_concurrent_clients,
            )
            for index in range(self.num_shards)
        ]
        self.servers: List[TrainingServer] = [
            TrainingServer(
                config=self._shard_server_config(index),
                model_factory=model_factory,
                router=self.transports[index],
                validation=validation,
                loss_factory=loss_factory,
                optimizer_factory=optimizer_factory,
                scheduler_factory=scheduler_factory,
            )
            for index in range(self.num_shards)
        ]
        self.router = ShardedTransport(self.transports, self.ring)
        self.heartbeat_monitor = ShardedHeartbeatMonitor(
            self.ring, [server.heartbeat_monitor for server in self.servers]
        )
        self.per_shard_results: List[Optional[ServerResult]] = [None] * self.num_shards
        self._threads: List[threading.Thread] = []
        self._state_lock = threading.Lock()
        self._errors: List[Optional[BaseException]] = [None] * self.num_shards

    def _shard_server_config(self, index: int) -> ServerConfig:
        """Specialise the base server config for shard ``index``.

        The buffer seed is offset by ``index * num_ranks`` so no two shards
        draw identical reservoir/batch sequences, and per-shard checkpoint
        directories keep rank files from colliding across shards.
        """
        base = self.server_config
        checkpoint_dir = base.checkpoint_dir
        if checkpoint_dir is not None:
            checkpoint_dir = Path(checkpoint_dir) / f"shard-{index}"
        return replace(
            base,
            expected_clients=len(self.assignments[index]),
            seed=base.seed + index * base.num_ranks,
            checkpoint_dir=checkpoint_dir,
        )

    # -------------------------------------------------------------------- run
    def _run_shard(self, index: int) -> None:
        try:
            result = self.servers[index].run()
        except BaseException as exc:  # noqa: BLE001 - reported from join()
            logger.exception("shard %d failed", index)
            with self._state_lock:
                self._errors[index] = exc
        else:
            with self._state_lock:
                self.per_shard_results[index] = result

    def start(self) -> None:
        """Start every shard's server on its own thread (non-blocking)."""
        if self._threads:
            raise RuntimeError("shard manager already started")
        for index in range(self.num_shards):
            thread = threading.Thread(
                target=self._run_shard, args=(index,), name=f"shard-{index}", daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def join(self, timeout: Optional[float] = None) -> ServerResult:
        """Wait for every shard and return the merged cluster result."""
        if not self._threads:
            raise RuntimeError("shard manager was not started")
        for thread in self._threads:
            thread.join(timeout=timeout)
        with self._state_lock:
            errors = [error for error in self._errors if error is not None]
            results = list(self.per_shard_results)
        if errors:
            raise errors[0]
        if any(result is None for result in results):
            raise RuntimeError("a shard did not complete within the join timeout")
        return self._merge(results)

    def run(self) -> ServerResult:
        """Run every shard to completion (blocking); returns the merged result."""
        self.start()
        return self.join()

    # ------------------------------------------------------------------ merge
    def _merge(self, results: Sequence[ServerResult]) -> ServerResult:
        per_rank = [metrics for result in results for metrics in result.per_rank_metrics]
        summary = merge_worker_metrics(per_rank, num_shards=self.num_shards)
        stats = aggregate_transport_stats(
            [result.transport_stats for result in results],
            ranks_per_shard=self.server_config.num_ranks,
            extra_kills=self.router.unresponsive_kills_recorded,
        )
        best_index = 0
        best_loss = float("inf")
        for index, result in enumerate(results):
            loss = result.best_validation_loss
            if loss == loss and loss < best_loss:  # NaN-safe strict improvement
                best_index, best_loss = index, loss
        return ServerResult(
            model=results[best_index].model,
            per_rank_metrics=per_rank,
            aggregator_stats=[s for result in results for s in result.aggregator_stats],
            buffer_snapshots=[b for result in results for b in result.buffer_snapshots],
            transport_stats=stats,
            summary=summary,
            duplicates_discarded=sum(result.duplicates_discarded for result in results),
        )


# ----------------------------------------------------------- cluster placement
@dataclass(frozen=True)
class ShardPlacement:
    """Where one shard landed on the simulated cluster."""

    shard: int
    partition: str
    cores: int
    gpus: int
    job_id: int
    started: bool


@dataclass(frozen=True)
class ShardPlacementPlan:
    """Outcome of placing every shard on the simulated cluster."""

    placements: Tuple[ShardPlacement, ...]

    @property
    def concurrent_shards(self) -> int:
        """Shards the cluster can actually run at once (started jobs)."""
        return sum(1 for placement in self.placements if placement.started)


def place_shards(
    cluster: ClusterSpec,
    num_shards: int,
    partition: Optional[str] = None,
    cores_per_shard: int = 1,
    gpus_per_shard: int = 1,
    scheduler: Optional[BatchScheduler] = None,
) -> ShardPlacementPlan:
    """Place one server job per shard on the simulated cluster.

    Reuses the batch-scheduler machinery of the Table 2 experiments: each
    shard submits a job requesting ``cores_per_shard``/``gpus_per_shard``
    on ``partition`` (default: the first partition with GPUs, else the
    first partition).  Jobs that start immediately are the shards the
    cluster can serve concurrently; the rest queue — the saturation model
    caps aggregate throughput at the concurrent count.
    """
    from repro.cluster.job import Job

    if num_shards <= 0:
        raise ConfigurationError("num_shards must be positive")
    if partition is None:
        gpu_partitions = [
            name for name, part in cluster.partitions.items() if part.total_gpus > 0
        ]
        candidates = gpu_partitions or list(cluster.partitions)
        if not candidates:
            raise ConfigurationError("the cluster has no partitions to place shards on")
        partition = candidates[0]
    scheduler = scheduler or BatchScheduler(cluster)
    placements = []
    for shard in range(num_shards):
        job = scheduler.submit(
            Job(
                name=f"server-shard-{shard}",
                partition=partition,
                cores=cores_per_shard,
                gpus=gpus_per_shard,
                runtime=1.0,
                payload={"shard": shard},
            )
        )
        placements.append(
            ShardPlacement(
                shard=shard,
                partition=partition,
                cores=cores_per_shard,
                gpus=gpus_per_shard,
                job_id=job.job_id,
                started=job.start_time is not None,
            )
        )
    return ShardPlacementPlan(placements=tuple(placements))


# ------------------------------------------------------------ saturation model
@dataclass(frozen=True)
class ShardedThroughputEstimate:
    """Saturation-model output of :func:`estimate_sharded_throughput`."""

    offered: Dict[int, float]
    served: Dict[int, float]
    aggregate: float


def estimate_sharded_throughput(
    ring: HashRing,
    client_rates: Mapping[int, float],
    per_shard_rate: float,
    concurrent_shards: Optional[int] = None,
) -> ShardedThroughputEstimate:
    """Aggregate msg/s of the sharded tier under a saturation model.

    Every client offers its rate to the shard the *real* ring assigns it
    to; a shard serves ``min(offered, per_shard_rate)`` (one aggregator
    pipeline saturates at the measured single-shard drain rate, the
    calibration input).  ``concurrent_shards`` — typically
    :attr:`ShardPlacementPlan.concurrent_shards` — caps the whole tier when
    the cluster cannot host every shard at once.
    """
    if per_shard_rate <= 0:
        raise ConfigurationError("per_shard_rate must be positive")
    offered: Dict[int, float] = {shard: 0.0 for shard in ring.shards}
    for client_id, rate in client_rates.items():
        offered[ring.shard_for(client_id)] += float(rate)
    served = {shard: min(load, float(per_shard_rate)) for shard, load in offered.items()}
    aggregate = sum(served.values())
    if concurrent_shards is not None and concurrent_shards < ring.num_shards:
        aggregate = min(aggregate, float(per_shard_rate) * max(0, int(concurrent_shards)))
    return ShardedThroughputEstimate(offered=offered, served=served, aggregate=aggregate)
