"""Sharded serving tier: N independent server shards behind one study.

One aggregator/trainer pair per rank is the throughput ceiling after the
transport work: a single server drains one endpoint no faster than one host
can.  This module scales the serving tier *out* instead of up —
:class:`ShardManager` runs ``num_shards`` independent
:class:`~repro.server.server.TrainingServer` instances, each with its own
transport endpoint, aggregator threads, buffer and training workers, and a
:class:`HashRing` routes every client to exactly one shard at ``connect()``:

* **Routing is consistent and deterministic.**  The ring hashes each shard
  into :data:`HASH_RING_REPLICAS` virtual points; a client id hashes to the
  first point clockwise.  A killed client that the launcher restarts hashes
  to the *same* shard, so the per-shard message log deduplicates its resend
  and the shm slot-lease table re-leases its ring unchanged — the elastic
  join/leave protocol works per shard without modification.
* **Placement stays bounded on join/leave.**  Adding or removing a shard
  only remaps the clients whose arc the change touches (about ``1/N`` of
  them); every other client keeps its shard, its dedup log and its lease.
* **The study still reports one coherent result.**  :func:`aggregate_transport_stats`
  folds per-shard :class:`~repro.parallel.transport.TransportStats` into
  cluster totals keyed by global rank, and
  :func:`~repro.core.metrics.merge_worker_metrics` grows a shard dimension,
  so :class:`~repro.server.server.ServerResult` keeps its shape.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.metrics import merge_worker_metrics
from repro.nn.module import Module
from repro.parallel.transport import (
    Connection,
    Transport,
    TransportConfig,
    TransportStats,
    make_transport,
)
from repro.server.server import ServerConfig, ServerResult, TrainingServer
from repro.server.validation import ValidationSet
from repro.utils.exceptions import ConfigurationError

#: Virtual nodes per shard on the consistent-hash ring.  More replicas
#: smooth the load spread across shards at the cost of a larger (still tiny)
#: ring; 64 keeps the max/min client load ratio within ~2x for paper-scale
#: ensembles.
HASH_RING_REPLICAS = 64


# ------------------------------------------------------------------ hash ring
def _hash64(key: str) -> int:
    """64-bit stable hash of ``key`` (blake2b; never Python's salted hash)."""
    return int.from_bytes(hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")


class HashRing:
    """Consistent-hash ring mapping client ids onto shard ids.

    Each shard contributes :data:`HASH_RING_REPLICAS` virtual points; a
    client id is owned by the first point at or clockwise after its own
    hash.  Placement is a pure function of ``(shard ids, client id)``: every
    process of a study — launcher, forked clients, server shards — computes
    the same assignment without coordination, and a restarted client always
    returns to the shard that holds its dedup log and slot lease.
    """

    def __init__(self, shards: Union[int, Iterable[int]]) -> None:
        if isinstance(shards, int):
            shard_ids: Tuple[int, ...] = tuple(range(shards))
        else:
            shard_ids = tuple(int(shard) for shard in shards)
            if len(set(shard_ids)) != len(shard_ids):
                raise ConfigurationError("duplicate shard ids on the hash ring")
            shard_ids = tuple(sorted(shard_ids))
        if not shard_ids:
            raise ConfigurationError("a hash ring needs at least one shard")
        self.shards = shard_ids
        points = [
            (_hash64(f"shard-{shard}/{replica}"), shard)
            for shard in shard_ids
            for replica in range(HASH_RING_REPLICAS)
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


# ----------------------------------------------------------- sharded transport
class ShardedTransport(Transport):
    """Client-routing front over the per-shard transports.

    Clients use this object exactly like a single transport: ``connect``
    resolves the owning shard on the hash ring and returns a
    :class:`~repro.parallel.transport.Connection` bound to that shard's own
    transport, so every subsequent push lands on the shard's channels
    without further routing.  Server-side draining happens *inside* each
    shard: its aggregators hold the shard transport directly.
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
    def transport_for(self, client_id: int) -> Transport:
        """The shard transport owning ``client_id``."""
        return self.shards[self.ring.shard_for(client_id)]

    # ------------------------------------------------------------------ client
    def connect(self, client_id: int, batch_size: int = 1) -> Connection:
        return self.transport_for(client_id).connect(client_id, batch_size=batch_size)

    def lease_client(self, client_id: int) -> int:
        return self.transport_for(client_id).lease_client(client_id)

    def adopt_lease(self, client_id: int, slot: int) -> None:
        self.transport_for(client_id).adopt_lease(client_id, slot)

    def release_client(self, client_id: int) -> None:
        self.transport_for(client_id).release_client(client_id)

    def record_unresponsive_kill(self) -> None:
        with self._kill_lock:
            self._unresponsive_kills += 1

    @property
    def unresponsive_kills_recorded(self) -> int:
        with self._kill_lock:
            return self._unresponsive_kills

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
    ring assignment; buffer seeds are offset per shard so shards never draw
    alike), exposes the client-facing
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
    ) -> None:
        self.num_shards = transport_config.shard.num_shards
        self.server_config = server_config
        self.transport_config = transport_config
        self.ring = HashRing(self.num_shards)
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
            )
            for index in range(self.num_shards)
        ]
        self.router = ShardedTransport(self.transports, self.ring)
        self.heartbeat_monitor = ShardedHeartbeatMonitor(
            self.ring, [server.heartbeat_monitor for server in self.servers]
        )

    def _shard_server_config(self, index: int) -> ServerConfig:
        """Specialise the base server config for shard ``index``.

        The buffer seed is offset by ``index * num_ranks`` so no two shards
        draw identical reservoir/batch sequences.
        """
        base = self.server_config
        return replace(
            base,
            expected_clients=len(self.assignments[index]),
            seed=base.seed + index * base.num_ranks,
        )

    # -------------------------------------------------------------------- run
    def run(self) -> ServerResult:
        """Run every shard's server on its own thread; the merged result."""
        results: List[Optional[ServerResult]] = [None] * self.num_shards

        def run_shard(index: int) -> None:
            # A failed shard fails every shard: a survivor would otherwise
            # wait for clients that hold launcher slots on the dead one.
            try:
                results[index] = self.servers[index].run()
            except BaseException as exc:  # noqa: BLE001 - thread boundary
                self.router.fail(exc)

        threads = [
            threading.Thread(target=run_shard, args=(index,), name=f"shard-{index}", daemon=True)
            for index in range(self.num_shards)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self.router.failure is not None:
            raise self.router.failure
        return self._merge(results)

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

