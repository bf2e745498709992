"""Message and envelope types exchanged between nodes.

A :class:`Message` is any protocol-level payload (Phase-1a, Phase-2b, a relay
aggregate, a client request...).  The network wraps it in an
:class:`Envelope` carrying addressing and accounting information: sender,
destination, wire size in bytes and send time.
"""

from __future__ import annotations

from typing import Any


class Message:
    """Base class for every protocol message.

    Subclasses are plain slotted classes in the protocol packages.  ``kind``
    defaults to the class name and is used for metrics and wire encoding.
    """

    __slots__ = ()

    #: Size of the variable-length payload carried by this message (bytes).
    #: A message's size is fixed at construction: subclasses carrying user
    #: data (commands, values, batched responses) declare a ``payload_bytes``
    #: slot and fill it in ``__init__`` -- wrappers add to their inner
    #: message's already-known figure -- so sizing a send is one attribute
    #: read however many hops share the object.  Rare types may compute it
    #: in a property instead.  The default is zero: the message is protocol
    #: metadata whose size is covered by the fixed header estimate in
    #: :class:`~repro.net.sizes.SizeModel`.
    payload_bytes = 0

    @property
    def kind(self) -> str:
        return type(self).__name__


class Envelope:
    """A message in flight between two endpoints.

    A plain ``__slots__`` class (not a dataclass): one is allocated per
    attempted send, so construction must stay cheap.
    """

    __slots__ = ("src", "dst", "message", "size_bytes", "send_time")

    def __init__(
        self,
        src: int,
        dst: int,
        message: Any,
        size_bytes: int = 0,
        send_time: float = 0.0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.message = message
        self.size_bytes = size_bytes
        self.send_time = send_time

    @property
    def kind(self) -> str:
        message_kind = getattr(self.message, "kind", None)
        if message_kind is not None:
            return message_kind
        return type(self.message).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Envelope({self.kind} {self.src}->{self.dst} "
            f"{self.size_bytes}B @{self.send_time:.6f})"
        )
