"""Shared protocol infrastructure.

Everything that Multi-Paxos, PigPaxos and EPaxos have in common lives here:
ballot numbers, the client-facing and Paxos wire messages, the replica base
class, and the :class:`~repro.protocol.base.NodeContext` interface through
which replicas reach the outside world (transport, timers, randomness,
CPU-cost accounting).  The simulator hosts every replica behind this
interface (:class:`~repro.cluster.node.ShardReplicaHost`).
"""

from repro.protocol.ballot import Ballot
from repro.protocol.config import ProtocolConfig
from repro.protocol.messages import (
    ClientRequest,
    ClientReply,
    P1a,
    P1b,
    P2a,
    P2b,
    FillRequest,
    FillReply,
    Heartbeat,
)
from repro.protocol.base import NodeContext, Replica

__all__ = [
    "Ballot",
    "ProtocolConfig",
    "ClientRequest",
    "ClientReply",
    "P1a",
    "P1b",
    "P2a",
    "P2b",
    "FillRequest",
    "FillReply",
    "Heartbeat",
    "NodeContext",
    "Replica",
]
