"""Wire messages shared by Multi-Paxos and PigPaxos (and the client API).

These correspond one-to-one to the arrows in the paper's Figure 1/2:
``P1a``/``P1b`` are propose/promise and ``P2a``/``P2b`` are accept/accepted.
Phase-3 has no message of its own: it rides on the next ``P2a`` (and on
each ``Heartbeat``) through their ``commit_upto`` field, exactly as in the
Multi-Paxos optimization the paper applies to both Paxos and PigPaxos.

The per-message types (client request/reply, phase-2, heartbeat) are
hand-written ``__slots__`` classes rather than frozen dataclasses: one is
allocated per protocol step per follower, and the frozen-dataclass
``object.__setattr__``-per-field constructor costs ~2.5x a plain ``__init__``
on this hot path.  They are immutable by convention -- messages are shared
by reference across simulated nodes and must never be mutated after being
sent -- and compare by object identity (nothing in the repo relied on the
generated value equality; match on fields/uids explicitly if you need it).
That immutability is also what lets a payload-carrying type fix its
``payload_bytes`` in ``__init__`` (one attribute read from the command it
wraps) instead of re-deriving it for every recipient.  The phase-1 and
gap-fill types stay frozen dataclasses; they are rare, and price themselves
through a ``payload_bytes`` property computed on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.net.message import Message
from repro.protocol.ballot import Ballot
from repro.statemachine.command import Command, CommandResult


# --------------------------------------------------------------------- client
class ClientRequest(Message):
    """A command submitted by a client to a replica."""

    __slots__ = ("command", "payload_bytes")

    def __init__(self, command: Command) -> None:
        self.command = command
        self.payload_bytes = command.payload_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClientRequest(command={self.command!r})"


class ClientReply(Message):
    """The reply sent back to the client after its command executed."""

    __slots__ = (
        "command_uid",
        "request_id",
        "client_id",
        "success",
        "result",
        "leader_hint",
        "request_send_time",
        "payload_bytes",
    )

    def __init__(
        self,
        command_uid: int,
        request_id: int,
        client_id: int,
        success: bool,
        result: Optional[CommandResult] = None,
        leader_hint: Optional[int] = None,
        request_send_time: float = 0.0,
    ) -> None:
        self.command_uid = command_uid
        self.request_id = request_id
        self.client_id = client_id
        self.success = success
        self.result = result
        self.leader_hint = leader_hint
        self.request_send_time = request_send_time
        self.payload_bytes = result.payload_bytes if result is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClientReply(client={self.client_id} req={self.request_id} "
            f"success={self.success})"
        )


# --------------------------------------------------------------------- phase 1
# lint: ok(no-frozen-dataclass-hot-path) phase-1 runs once per leader change, not per command; ctor cost is irrelevant here
@dataclass(frozen=True, slots=True)
class P1a(Message):
    """Phase-1a: "lead with ballot b?".

    ``commit_upto`` is the candidate's gap-free committed frontier: every
    promise reports the entries its voter holds above it.
    """

    ballot: Ballot
    commit_upto: int = 0


# lint: ok(no-frozen-dataclass-hot-path) phase-1 runs once per leader change, not per command; ctor cost is irrelevant here
@dataclass(frozen=True, slots=True)
class P1b(Message):
    """Phase-1b promise.  ``accepted`` maps slot -> (ballot, command).

    It holds every entry the voter has above the candidate's
    ``P1a.commit_upto``, executed or not, so the candidate's quorum sees
    every slot it has not committed (classic synod recovery).
    """

    ballot: Ballot
    voter: int
    ok: bool
    accepted: Dict[int, Tuple[Ballot, object]] = field(default_factory=dict)

    @property
    def payload_bytes(self) -> int:
        total = 0
        # lint: ok(no-unordered-iteration) sum accumulation; order-insensitive
        for _, command in self.accepted.values():
            total += getattr(command, "payload_bytes", 0) + 16  # + slot and ballot encoding
        return total


# --------------------------------------------------------------------- phase 2
class P2a(Message):
    """Phase-2a accept request for one slot, with phase-3 piggybacked.

    ``commit_upto`` tells followers that every slot <= commit_upto is
    committed (the Multi-Paxos piggybacking of phase-3 onto the next
    phase-2a).
    """

    __slots__ = ("ballot", "slot", "command", "commit_upto", "payload_bytes")

    def __init__(self, ballot: Ballot, slot: int, command: object, commit_upto: int = 0) -> None:
        self.ballot = ballot
        self.slot = slot
        self.command = command
        self.commit_upto = commit_upto
        self.payload_bytes = getattr(command, "payload_bytes", 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"P2a(ballot={self.ballot} slot={self.slot} commit_upto={self.commit_upto})"


class P2b(Message):
    """Phase-2b accepted/rejected vote from one follower."""

    __slots__ = ("ballot", "slot", "voter", "ok")

    def __init__(self, ballot: Ballot, slot: int, voter: int, ok: bool) -> None:
        self.ballot = ballot
        self.slot = slot
        self.voter = voter
        self.ok = ok

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"P2b(ballot={self.ballot} slot={self.slot} voter={self.voter} ok={self.ok})"


# --------------------------------------------------------------------- catch-up
# lint: ok(no-frozen-dataclass-hot-path) gap-fill is a rare recovery path, not the per-command hot path
@dataclass(frozen=True, slots=True)
class FillRequest(Message):
    """A follower asking the leader for slots it is missing."""

    slots: Tuple[int, ...]
    requester: int


# lint: ok(no-frozen-dataclass-hot-path) gap-fill is a rare recovery path, not the per-command hot path
@dataclass(frozen=True, slots=True)
class FillReply(Message):
    """Leader's response to a FillRequest: committed entries for the slots."""

    entries: Tuple[Tuple[int, Ballot, object], ...]

    @property
    def payload_bytes(self) -> int:
        total = 0
        for _, _, command in self.entries:
            total += getattr(command, "payload_bytes", 0) + 16
        return total


class Heartbeat(Message):
    """Periodic leader liveness signal carrying the commit frontier."""

    __slots__ = ("ballot", "commit_upto")

    def __init__(self, ballot: Ballot, commit_upto: int = 0) -> None:
        self.ballot = ballot
        self.commit_upto = commit_upto

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Heartbeat(ballot={self.ballot} commit_upto={self.commit_upto})"
