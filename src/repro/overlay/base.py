"""The fan-out overlay interface.

A :class:`FanoutOverlay` decides *how* a replica's wide-cast messages reach
the rest of the cluster: directly (one message per peer), through relay
trees (PigPaxos-style, one message per relay group), or thriftily (only a
quorum-sized subset, with a fallback re-send on timeout).  Replicas route
every wide-cast through their overlay instead of looping over their
peers themselves, which is what makes the paper's
communication-cost comparison a pluggable axis instead of a Multi-Paxos
special case.

The overlay talks back to its hosting replica through the narrow
:class:`OverlayHost` surface: sending, scheduling, the host's relayed-message
table (a wrapped inner message applied as a follower, the response returned
instead of sent), its vote table, through which a fan-out root hands over
the votes of one aggregate in one call, and its dispatch table for the
overlay's own wire types.

Example (unit-style, with the test FakeContext stand-in)::

    from repro.overlay import DirectFanout
    from repro.epaxos.replica import EPaxosReplica

    replica = EPaxosReplica(overlay=DirectFanout())   # the default
    # after bind(), every PreAccept/Accept/Commit wide-cast goes through
    # replica.overlay.wide_cast(...)
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Mapping,
    Optional,
    Protocol,
    Tuple,
)

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.base import NodeContext


class OverlayHost(Protocol):
    """What a fan-out overlay may ask of the replica hosting it.

    Implemented by :class:`repro.protocol.base.Replica`: ``ctx`` exposes the
    node context (send/schedule/rng/metrics),
    ``relayed[type(inner)](src, inner)`` applies a relayed inner message
    locally and *returns* the response (or None) so a relay can aggregate
    it, and ``votes[type(responses[0])](src, responses)`` feeds the votes
    of one aggregate to the replica: one call per aggregate, which by
    default dispatches each vote through ``handlers``.
    """

    protocol_name: str
    ctx: "NodeContext"
    node_id: int
    handlers: Mapping[type, Callable[[int, Any], None]]
    relayed: Mapping[type, Callable[[int, Message], Optional[Message]]]
    votes: Mapping[type, Callable[[int, Tuple[Any, ...]], None]]
    peers: Tuple[int, ...]

    def send(self, dst: int, message: Any) -> None: ...

    def count(self, name: str, amount: float = 1.0) -> None: ...

    def counter(self, name: str) -> Any: ...


class FanoutOverlay(ABC):
    """Strategy object replicas use for wide-cast (one-to-many) messaging.

    Lifecycle: constructed per replica (never shared between replicas),
    bound to its host once via :meth:`bind`, then driven entirely by the
    host: :meth:`wide_cast` on the send side, the :meth:`handlers` it
    registered for any :class:`~repro.overlay.messages.OverlayMessage`
    arriving off the wire, :meth:`complete_round`/:meth:`on_crash` for
    lifecycle notifications.
    """

    name = "abstract"

    def __init__(self) -> None:
        #: The hosting replica; a plain attribute (overlay code reads it
        #: several times per relayed message).  None until :meth:`bind`, so
        #: unbound use fails with an AttributeError on None.
        self.host: Optional[OverlayHost] = None

    def bind(self, host: OverlayHost) -> None:
        """Attach the overlay to its hosting replica (exactly once)."""
        if self.host is not None and self.host is not host:
            raise RuntimeError(
                f"{type(self).__name__} is already bound to node "
                f"{self.host.node_id}; overlays must not be shared between replicas"
            )
        self.host = host

    # ------------------------------------------------------------------ sending
    @abstractmethod
    def wide_cast(
        self,
        message: Message,
        *,
        expects_response: bool = True,
        round_id: Optional[Hashable] = None,
        quorum_size: Optional[int] = None,
    ) -> None:
        """Disseminate ``message`` to the host's peers.

        ``round_id``/``quorum_size`` describe the voting round the message
        opens (thrifty overlays use them to size the subset and arm the
        fallback); ``expects_response`` is False for fire-and-forget traffic
        (heartbeats, commit notifications) that every peer must still
        receive.
        """

    def complete_round(self, round_id: Hashable) -> None:
        """The host reached quorum for ``round_id``; cancel any fallback."""

    # ------------------------------------------------------------------ receiving
    def handlers(self) -> Dict[type, Callable[[int, Any], None]]:
        """The overlay's own wire types and their handlers (none by default).

        Merged into the host's dispatch table when the host is bound to its
        node, so overlay traffic reaches the overlay without a replica hop.
        """
        return {}

    # ------------------------------------------------------------------ lifecycle
    def reshuffle(self) -> None:
        """Re-randomise any topology state (relay groups); default no-op."""

    def on_crash(self) -> None:
        """Drop volatile overlay state at a crash, which cancelled its timers."""
