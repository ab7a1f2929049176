"""Shared tuning constants of the program.

Each constant here has more than one consumer — the hash-ring replica count
is read by the shard options' default and by the hash ring — so it lives in
one place and one edit moves every consumer.
"""

#: Virtual nodes per shard on the consistent-hash ring of the sharded
#: serving tier.  More replicas smooth the load spread across shards at the
#: cost of a larger (still tiny) ring; 64 keeps the max/min client load
#: ratio within ~2x for paper-scale ensembles.  Single source of truth for
#: ``repro.parallel.transport.ShardOptions`` and
#: ``repro.server.sharding.HashRing``.
DEFAULT_HASH_RING_REPLICAS = 64
