"""Sharded multi-group consensus over a shared node set.

One consensus group tops out at one leader's throughput; production
systems (Spanner-, CockroachDB-style) run thousands of consensus groups
over a shared set of machines.  This package provides the pieces that turn
the single-group simulator into a sharded deployment:

* :mod:`repro.shard.addressing` -- the endpoint-id scheme under which one
  physical node hosts one replica *per shard*, and which the network folds
  back onto machines so delays and link faults stay physical.
* :mod:`repro.shard.router` -- the deterministic key-range router clients
  use to aim each command at the consensus group owning its key, and the
  round-robin leader placement that spreads group leaders across nodes.

The cluster-side hosting lives in :mod:`repro.cluster.node`: every replica,
shard 0's included, runs in a :class:`~repro.cluster.node.ShardReplicaHost`
wired by ``build_cluster(shards=n)``, and every client routes through a
:class:`~repro.shard.router.ShardRouter`, so an unsharded cluster is the
one-group case; scenarios opt in with ``Scenario(shards=N)``.  Sharding
defaults off everywhere.
"""

from repro.shard.addressing import (
    SHARD_ENDPOINT_STRIDE,
    physical_node,
    shard_endpoint,
    shard_of_endpoint,
)
from repro.shard.router import ShardMap, ShardRouter, round_robin_leaders

__all__ = [
    "SHARD_ENDPOINT_STRIDE",
    "ShardMap",
    "ShardRouter",
    "physical_node",
    "round_robin_leaders",
    "shard_endpoint",
    "shard_of_endpoint",
]
