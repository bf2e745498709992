"""EPaxos wire messages.

Instances are identified by ``(replica_id, instance_number)``.  Dependency
sets and sequence numbers ride along with every message, which is why EPaxos
messages grow with the conflict rate -- an effect the wire-size model charges
for via ``payload_bytes``.

Every voting message also carries a per-instance *ballot*: a
``(number, replica_id)`` pair ordered lexicographically.  An instance's
original command leader runs at the default ballot ``(0, leader_id)``; the
explicit-prepare recovery path (:class:`EPrepare`/:class:`EPrepareReply`)
claims higher ballots so that a survivor finishing -- or no-op'ing -- a
crashed leader's instance can never race the original round into committing
two different values.  Ballots are fixed-width protocol metadata, so they
are covered by the header estimate in :class:`~repro.net.sizes.SizeModel`
and do not contribute to ``payload_bytes``.  Like every wire type, the
payload-carrying messages fix ``payload_bytes`` in ``__init__``: one object
is broadcast by reference to every peer, so it is sized once.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from repro.net.message import Message
from repro.statemachine.command import Command

InstanceId = Tuple[int, int]

#: Per-instance ballot: (number, replica_id), compared lexicographically.
Ballot = Tuple[int, int]


def initial_ballot(instance: InstanceId) -> Ballot:
    """The default ballot an instance's original command leader runs at."""
    return (0, instance[0])


def _deps_bytes(deps: FrozenSet[InstanceId]) -> int:
    # Each dependency is a (replica, instance) pair: ~12 bytes encoded.
    return 12 * len(deps)


class EPreAccept(Message):
    """PreAccept sent by the command leader to the other replicas.

    Like the Paxos phase-2 types, the per-round EPaxos messages are plain
    slotted classes (immutable by convention): one is allocated per replica
    per round, and the frozen-dataclass constructor is ~2.5x slower.
    """

    __slots__ = ("instance", "command", "seq", "deps", "ballot", "payload_bytes")

    def __init__(self, instance: InstanceId, command: Command, seq: int,
                 deps: FrozenSet[InstanceId], ballot: Optional[Ballot] = None) -> None:
        self.instance = instance
        self.command = command
        self.seq = seq
        self.deps = deps
        self.ballot = ballot if ballot is not None else initial_ballot(instance)
        self.payload_bytes = command.payload_bytes + _deps_bytes(deps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EPreAccept(instance={self.instance} seq={self.seq} ballot={self.ballot})"


class EPreAcceptReply(Message):
    """A replica's (possibly updated) view of the instance's seq and deps."""

    __slots__ = ("instance", "voter", "ok", "seq", "deps", "changed", "ballot",
                 "payload_bytes")

    def __init__(self, instance: InstanceId, voter: int, ok: bool, seq: int,
                 deps: FrozenSet[InstanceId], changed: bool,
                 ballot: Optional[Ballot] = None) -> None:
        self.instance = instance
        self.voter = voter
        self.ok = ok
        self.seq = seq
        self.deps = deps
        self.changed = changed
        self.ballot = ballot if ballot is not None else initial_ballot(instance)
        self.payload_bytes = _deps_bytes(deps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EPreAcceptReply(instance={self.instance} voter={self.voter} changed={self.changed})"


class EAccept(Message):
    """Slow-path accept carrying the union of dependencies.

    Also the phase-2 vehicle of the recovery path: a recovery coordinator
    finishes (or no-ops) an orphaned instance by winning an Accept round at
    a ballot above the default one.
    """

    __slots__ = ("instance", "command", "seq", "deps", "ballot", "payload_bytes")

    def __init__(self, instance: InstanceId, command: Command, seq: int,
                 deps: FrozenSet[InstanceId], ballot: Optional[Ballot] = None) -> None:
        self.instance = instance
        self.command = command
        self.seq = seq
        self.deps = deps
        self.ballot = ballot if ballot is not None else initial_ballot(instance)
        self.payload_bytes = command.payload_bytes + _deps_bytes(deps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EAccept(instance={self.instance} seq={self.seq} ballot={self.ballot})"


class EAcceptReply(Message):
    """Acknowledgement (or ballot rejection) of the slow-path accept."""

    __slots__ = ("instance", "voter", "ok", "ballot")

    def __init__(self, instance: InstanceId, voter: int, ok: bool,
                 ballot: Optional[Ballot] = None) -> None:
        self.instance = instance
        self.voter = voter
        self.ok = ok
        self.ballot = ballot if ballot is not None else initial_ballot(instance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EAcceptReply(instance={self.instance} voter={self.voter} ok={self.ok})"


class EPrepare(Message):
    """Explicit-prepare probe opening the recovery of one instance.

    Sent by a replica whose execution has been blocked on an uncommitted
    dependency past ``ProtocolConfig.recovery_timeout``.  Claims ``ballot``
    (strictly above the default ballot) at every reachable replica so the
    coordinator can learn the instance's most advanced surviving state and
    finish it -- or, when no survivor has ever heard of the command, commit
    a no-op in its place.  Hand-slotted like the other per-round types.
    """

    __slots__ = ("instance", "ballot")

    def __init__(self, instance: InstanceId, ballot: Ballot) -> None:
        self.instance = instance
        self.ballot = ballot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EPrepare(instance={self.instance} ballot={self.ballot})"


class EPrepareReply(Message):
    """One replica's recorded state for an instance under recovery.

    ``status`` is the replica's local view (``"unknown"`` when it has never
    seen the instance's command); ``attr_ballot`` is the ballot at which the reported
    attributes were written (the recovery decision table must prefer the
    most recent accept); ``changed`` reports whether the replica's original
    PreAccept answer modified the leader's proposed attributes -- the
    fast-path-possible test counts only *unchanged* default-ballot replies.
    """

    __slots__ = ("instance", "voter", "ok", "ballot", "status", "seq",
                 "deps", "command", "attr_ballot", "changed", "payload_bytes")

    def __init__(self, instance: InstanceId, voter: int, ok: bool, ballot: Ballot,
                 status: str, seq: int, deps: FrozenSet[InstanceId],
                 command: Optional[Command], attr_ballot: Ballot,
                 changed: bool) -> None:
        self.instance = instance
        self.voter = voter
        self.ok = ok
        self.ballot = ballot
        self.status = status
        self.seq = seq
        self.deps = deps
        self.command = command
        self.attr_ballot = attr_ballot
        self.changed = changed
        command_bytes = command.payload_bytes if command is not None else 0
        self.payload_bytes = command_bytes + _deps_bytes(deps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EPrepareReply(instance={self.instance} voter={self.voter} "
            f"ok={self.ok} status={self.status!r})"
        )


class ECommit(Message):
    """Commit notification broadcast to every replica."""

    __slots__ = ("instance", "command", "seq", "deps", "payload_bytes")

    def __init__(self, instance: InstanceId, command: Command, seq: int,
                 deps: FrozenSet[InstanceId]) -> None:
        self.instance = instance
        self.command = command
        self.seq = seq
        self.deps = deps
        self.payload_bytes = command.payload_bytes + _deps_bytes(deps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ECommit(instance={self.instance} seq={self.seq})"
