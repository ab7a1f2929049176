"""Shared tuning constants of the program.

Each constant here has more than one consumer — the ring geometry and the
hash-ring replica count are each read by a backend and by its config
default — so it lives in one place and one edit moves every consumer.
"""

#: Default geometry of one shared-memory SPSC ring: ``DEFAULT_RING_SLOTS``
#: packed batches of at most ``DEFAULT_RING_SLOT_BYTES`` bytes each.  This is
#: the single source of truth — ``repro.parallel.shm_ring`` re-exports the
#: names and ``repro.parallel.transport.ShmOptions`` defaults to them, so the
#: study-config default and the backend default cannot drift apart.
DEFAULT_RING_SLOTS = 16
DEFAULT_RING_SLOT_BYTES = 64 * 1024

#: Virtual nodes per shard on the consistent-hash ring of the sharded
#: serving tier.  More replicas smooth the load spread across shards at the
#: cost of a larger (still tiny) ring; 64 keeps the max/min client load
#: ratio within ~2x for paper-scale ensembles.  Single source of truth for
#: ``repro.parallel.transport.ShardOptions`` and
#: ``repro.server.sharding.HashRing``.
DEFAULT_HASH_RING_REPLICAS = 64
