"""Simulated network substrate.

Models what the Paxi testbed's real network provided: point-to-point message
delivery with per-link latency, per-byte transmission cost, message drops,
partitions and crashed endpoints.  Protocol code never talks to the network
directly: replicas send through their :class:`~repro.protocol.base.NodeContext`
(:class:`~repro.cluster.node.ShardReplicaHost`, which charges its machine's
CPU and then calls :meth:`SimNetwork.send`).
"""

from repro.net.message import Message
from repro.net.sizes import SizeModel
from repro.net.latency import (
    LatencyModel,
    ConstantLatency,
    NormalLatency,
    WANMatrixLatency,
)
from repro.net.topology import Topology, Region, Zone
from repro.net.faults import NetworkFaults
from repro.net.network import SimNetwork

__all__ = [
    "Message",
    "SizeModel",
    "LatencyModel",
    "ConstantLatency",
    "NormalLatency",
    "WANMatrixLatency",
    "Topology",
    "Region",
    "Zone",
    "NetworkFaults",
    "SimNetwork",
]
