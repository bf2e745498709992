"""Direct (all-to-all) fan-out: the status-quo broadcast.

``DirectFanout`` sends one copy of the message to every peer, in peer
order, with no overlay state and no RNG draw.  It is the
default overlay for Multi-Paxos and EPaxos, and the baseline the paper's
communication-cost tables compare relay and thrifty fan-out against: the
fan-out root touches ``2(n-1)`` messages per round (sends plus replies),
which is the leader bottleneck PigPaxos attacks.

Example::

    from repro.overlay import DirectFanout

    overlay = DirectFanout()          # bound by the replica that owns it
    # overlay.wide_cast(msg) sends msg to every peer of the bound replica
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.net.message import Message
from repro.overlay.base import FanoutOverlay


class DirectFanout(FanoutOverlay):
    """Send wide-cast messages straight to every peer (no overlay tricks)."""

    name = "direct"

    def wide_cast(
        self,
        message: Message,
        *,
        expects_response: bool = True,
        round_id: Optional[Hashable] = None,
        quorum_size: Optional[int] = None,
    ) -> None:
        for peer in self.host.peers:
            self.host.send(peer, message)
