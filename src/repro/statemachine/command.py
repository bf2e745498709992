"""Client commands and their results.

The paper's workload is a key-value workload: 1000 distinct 8-byte keys, with
8-byte values by default and values up to 1280 bytes in the payload-size
experiment (Figure 12).  Commands carry an explicit ``payload_size`` so the
wire-size model can charge for large values without materialising them.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional


class OpType(enum.Enum):
    """Operation type of a command."""

    GET = "get"
    PUT = "put"
    DELETE = "delete"

    @property
    def is_read(self) -> bool:
        return self is OpType.GET

    @property
    def is_write(self) -> bool:
        return self is not OpType.GET


_command_uids = itertools.count(1)


class Command:
    """A single key-value operation issued by a client.

    A plain slotted class (one is allocated per client request, plus the
    simulator passes it by reference through every replica); immutable by
    convention, like the message types that carry it.  Equality is object
    identity: ``uid`` is globally unique, so the old dataclass-generated
    value equality (which included ``uid``) never compared two distinct
    objects equal either -- compare ``uid`` explicitly when matching
    commands across replicas, as the checkers do.

    Attributes:
        op: Operation type.
        key: Key operated on.
        value: Value written (PUT only); may be None when only the size matters.
        payload_size: Number of value bytes carried on the wire.  For PUTs this
            is the value size; reads carry no payload.
        client_id: Endpoint id of the issuing client.
        request_id: Client-local sequence number, unique per client.
        uid: Globally unique command id (assigned automatically).
        payload_bytes: Bytes of user data this command adds to a message
            carrying it (key, plus the value for writes); fixed at
            construction, so every wrapper and hop reads it for free.
    """

    __slots__ = ("op", "key", "value", "payload_size", "client_id", "request_id", "uid",
                 "payload_bytes")

    def __init__(
        self,
        op: "OpType",
        key: str,
        value: Optional[str] = None,
        payload_size: int = 8,
        client_id: int = -1,
        request_id: int = 0,
        uid: Optional[int] = None,
    ) -> None:
        if payload_size < 0:
            raise ValueError("payload_size must be non-negative")
        self.op = op
        self.key = key
        self.value = value
        self.payload_size = payload_size
        self.client_id = client_id
        self.request_id = request_id
        self.uid = next(_command_uids) if uid is None else uid
        key_bytes = len(key.encode("utf-8"))
        self.payload_bytes = key_bytes if op is OpType.GET else key_bytes + payload_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Command({self.op.value} {self.key!r} client={self.client_id} "
            f"req={self.request_id} uid={self.uid})"
        )

    @property
    def is_read(self) -> bool:
        return self.op.is_read

    @property
    def is_write(self) -> bool:
        return self.op.is_write

    def conflicts_with(self, other) -> bool:
        """EPaxos-style conflict: same key and at least one of them writes."""
        if type(other) is CommandBatch:
            return other.conflicts_with(self)
        if self.key != other.key:
            return False
        return self.is_write or other.is_write


class CommandResult:
    """Outcome of applying a command to the state machine.

    A plain slotted class (one is allocated per applied command per
    replica); immutable by convention.  Equality is object identity;
    compare ``command_uid`` (and fields) explicitly when needed.
    """

    __slots__ = ("command_uid", "success", "value", "existed")

    def __init__(self, command_uid: int, success: bool,
                 value: Optional[str] = None, existed: bool = False) -> None:
        self.command_uid = command_uid
        self.success = success
        self.value = value
        self.existed = existed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CommandResult(uid={self.command_uid} success={self.success} value={self.value!r})"

    @property
    def payload_bytes(self) -> int:
        """Computed on read: one result is allocated per applied command per
        replica, but only the leader's reply to the client is ever sized."""
        return len(self.value.encode("utf-8")) if self.value else 0


class CommandBatch:
    """An ordered group of client commands occupying one slot / instance.

    Built by a batching leader (``ProtocolConfig.batch_max_commands > 1``)
    and carried through the replication path as a single command: one
    ``P2a``/``EPreAccept``/``RelayRequest`` ships the whole batch, so the
    per-message wire header (``SizeModel.header_bytes``) and the per-message
    CPU charge are amortised over every command inside.  Execution unpacks
    the batch in order on every replica, inside one
    :meth:`~repro.statemachine.kvstore.KVStore.apply` call, applying each
    sub-command through the normal per-client session dedup, so
    at-most-once semantics and the linearizability checker see exactly the
    per-command histories they always did.

    Deliberately has **no** ``client_id`` / ``request_id`` / ``key``
    attributes: code that needs them tests ``type(command) is
    CommandBatch`` and walks ``commands``.  Like :class:`Command`, a batch
    is immutable by convention and compared by ``uid``.

    Attributes:
        commands: The batched commands, in client-arrival order.
        uid: Globally unique id (same counter as :class:`Command`), used by
            the log agreement checks exactly like a plain command's uid.
        payload_bytes: Summed sub-command payloads, fixed at construction;
            the shared header is priced once.
    """

    __slots__ = ("commands", "uid", "payload_bytes")

    def __init__(self, commands, uid: Optional[int] = None) -> None:
        self.commands = tuple(commands)
        if not self.commands:
            raise ValueError("a CommandBatch needs at least one command")
        self.uid = next(_command_uids) if uid is None else uid
        self.payload_bytes = sum(command.payload_bytes for command in self.commands)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CommandBatch(n={len(self.commands)} uid={self.uid})"

    def __len__(self) -> int:
        return len(self.commands)

    def keys(self):
        """Distinct keys touched, in first-occurrence order (EPaxos deps)."""
        seen = []
        for command in self.commands:
            if command.key not in seen:
                seen.append(command.key)
        return tuple(seen)

    def conflicts_with(self, other) -> bool:
        """A batch conflicts when any of its commands does."""
        if type(other) is CommandBatch:
            return any(self.conflicts_with(sub) for sub in other.commands)
        return any(sub.conflicts_with(other) for sub in self.commands)


class NoOp:
    """Sentinel command used by Paxos to fill gaps when recovering slots."""

    __slots__ = ("uid",)

    payload_bytes = 0

    def __init__(self) -> None:
        self.uid = next(_command_uids)

    @property
    def is_read(self) -> bool:
        return False

    @property
    def is_write(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return f"NoOp(uid={self.uid})"
