"""The base type of every message exchanged between nodes.

A :class:`Message` is any protocol-level payload (Phase-1a, Phase-2b, a relay
aggregate, a client request...).  The network carries the object itself:
its delivery event calls ``arrive(src, message, size)`` on the destination
(:class:`~repro.net.network.Endpoint`), so sender and wire size travel
beside the message and nothing wraps it.
"""

from __future__ import annotations


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
