"""Endpoint addressing for multi-shard hosting.

Every consensus group ("shard") gets its own endpoint-id namespace: the
replica for shard ``s`` hosted on physical node ``n`` is network endpoint
``s * SHARD_ENDPOINT_STRIDE + n``.  Shard 0 therefore uses the raw physical
node ids, and an unsharded cluster is simply its one-group case.

The stride is far above both node ids (tens to hundreds) and benchmark
client ids (``CLIENT_ID_BASE`` = 1000), so the three id spaces never
collide; the builder rejects node ids outside ``[0, stride)``.

Network latency and link faults are properties of the *physical*
machines, not of the replicas they host: two co-hosted shard replicas are
one ``localhost`` apart, and a WAN link between two machines is equally
wide for every group that crosses it.  The fabric
(:class:`~repro.net.network.SimNetwork`,
:class:`~repro.net.faults.NetworkFaults`) therefore folds every endpoint
id onto its machine -- ``endpoint_id % SHARD_ENDPOINT_STRIDE`` -- before
it prices a link or judges a drop.
"""

from __future__ import annotations

from repro.net.topology import SHARD_ENDPOINT_STRIDE


def shard_endpoint(shard: int, node_id: int) -> int:
    """The endpoint id of shard ``shard``'s replica hosted on ``node_id``."""
    return shard * SHARD_ENDPOINT_STRIDE + node_id


def physical_node(endpoint_id: int) -> int:
    """The physical node hosting ``endpoint_id`` (identity for shard 0)."""
    return endpoint_id % SHARD_ENDPOINT_STRIDE


def shard_of_endpoint(endpoint_id: int) -> int:
    """Which shard's namespace an endpoint id belongs to."""
    return endpoint_id // SHARD_ENDPOINT_STRIDE
