"""Sharded multi-group consensus over a shared node set.

One consensus group tops out at one leader's throughput; production
systems (Spanner-, CockroachDB-style) run thousands of consensus groups
over a shared set of machines.  This package provides the pieces that turn
the single-group simulator into a sharded deployment:

* :mod:`repro.shard.addressing` -- the endpoint-id scheme under which one
  physical node hosts one replica *per shard*, plus the latency wrapper
  that keeps WAN/LAN delays a property of the physical machines.
* :mod:`repro.shard.router` -- the deterministic key-range router clients
  use to aim each command at the consensus group owning its key, and the
  round-robin leader placement that spreads group leaders across nodes.

The cluster-side hosting lives in :mod:`repro.cluster.node`
(:class:`~repro.cluster.node.ShardReplicaHost`) and is wired by
``build_cluster(shards=n)``; scenarios opt in with ``Scenario(shards=N)``.
Sharding defaults off everywhere, and the unsharded code paths are
bit-for-bit unchanged (see ``tests/test_golden_fingerprints.py``).
"""

from repro.shard.addressing import (
    SHARD_ENDPOINT_STRIDE,
    ShardAwareLatency,
    physical_node,
    shard_endpoint,
    shard_of_endpoint,
)
from repro.shard.router import ShardMap, ShardRouter, round_robin_leaders

__all__ = [
    "SHARD_ENDPOINT_STRIDE",
    "ShardAwareLatency",
    "ShardMap",
    "ShardRouter",
    "physical_node",
    "round_robin_leaders",
    "shard_endpoint",
    "shard_of_endpoint",
]
