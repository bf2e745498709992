"""Endpoint addressing for multi-shard hosting.

Every consensus group ("shard") gets its own endpoint-id namespace: the
replica instance for shard ``s`` hosted on physical node ``n`` is network
endpoint ``s * SHARD_ENDPOINT_STRIDE + n``.  Shard 0 therefore uses the raw
physical node ids -- which is exactly the unsharded deployment, so the
single-group code paths are untouched by construction.

The stride is far above both node ids (tens to hundreds) and benchmark
client ids (``CLIENT_ID_BASE`` = 1000), so the three id spaces never
collide; the builder validates node ids against the stride when sharding is
enabled.

Network latency is a property of the *physical* machines, not of the
replica instances they host: two co-hosted shard instances are one
``localhost`` apart, and a WAN link between two machines is equally wide
for every group that crosses it.  :class:`ShardAwareLatency` wraps the
topology's latency model and folds shard endpoints back onto their
physical node, both per draw and when the network resolves a link's static
delay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.latency import LatencyModel, LinkDelay

#: Endpoint-id stride between consecutive shards' namespaces.  Physical
#: node ids and client ids (``CLIENT_ID_BASE`` = 1000) both stay below it.
SHARD_ENDPOINT_STRIDE = 1_000_000


def shard_endpoint(shard: int, node_id: int) -> int:
    """The endpoint id of shard ``shard``'s replica hosted on ``node_id``."""
    return shard * SHARD_ENDPOINT_STRIDE + node_id


def physical_node(endpoint_id: int) -> int:
    """The physical node hosting ``endpoint_id`` (identity for shard 0)."""
    return endpoint_id % SHARD_ENDPOINT_STRIDE


def shard_of_endpoint(endpoint_id: int) -> int:
    """Which shard's namespace an endpoint id belongs to."""
    return endpoint_id // SHARD_ENDPOINT_STRIDE


@dataclass(frozen=True)
class ShardAwareLatency(LatencyModel):
    """Delegates to a base model after mapping endpoints to physical nodes.

    Client ids sit below the stride and pass through unchanged, so the base
    model's existing "clients are co-located" behaviour is preserved.
    """

    base: LatencyModel

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        return self.base.delay(
            src % SHARD_ENDPOINT_STRIDE, dst % SHARD_ENDPOINT_STRIDE, rng
        )

    def link(self, src: int, dst: int) -> LinkDelay:
        return self.base.link(src % SHARD_ENDPOINT_STRIDE, dst % SHARD_ENDPOINT_STRIDE)

    def describe(self) -> str:
        return f"ShardAware({self.base.describe()})"
