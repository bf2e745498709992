"""Wire-size model for protocol messages.

The paper's Section 5.6 shows throughput degrading with payload size for both
Paxos and PigPaxos; to reproduce that, every message is assigned a wire size:

    size = header_bytes + payload_bytes

``payload_bytes`` comes from the message itself (``Message.payload_bytes``),
so an aggregated relay response containing k follower votes is bigger than a
single vote, and a Phase-2a carrying a 1280-byte value is bigger than one
carrying an 8-byte value.

The size computed here feeds every layer of the communication-cost
accounting: transmission delay (:mod:`repro.net.topology`), CPU send/receive
cost (:mod:`repro.cluster.cpu`), the global and per-message-type byte
counters (:mod:`repro.net.network`), and the per-node ``bytes_in/out``
counters (:mod:`repro.cluster.node`) that
:func:`repro.sim.metrics.bottleneck_node` aggregates for the paper-style
protocol x overlay tables.

A message knows its payload from construction (wire types are immutable,
see :class:`~repro.net.message.Message`), so ``size_of`` is one attribute
read per send: the node's CPU charge calls it and passes the result through
to the network, whichever hop or however many recipients share the object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.message import Message


@dataclass(frozen=True)
class SizeModel:
    """Estimates the number of bytes a message occupies on the wire.

    Attributes:
        header_bytes: Fixed per-message overhead (framing, ballot, slot ids,
            addressing).  64 bytes approximates Paxi's gob-encoded headers.
    """

    header_bytes: int = 64

    def size_of(self, message: Any) -> int:
        try:
            payload = message.payload_bytes
        except AttributeError:
            if isinstance(message, Message):
                # A wire type with an unfilled slot or a failing property is
                # a bug, not a header-only message.
                raise
            # Not a wire type (tests send bare objects): header only.
            return self.header_bytes
        # A negative payload never shrinks a message below its header.
        return self.header_bytes + payload if payload > 0 else self.header_bytes
