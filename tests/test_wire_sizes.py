"""Size-memo equivalence: construction-time sizes vs. a from-scratch walk.

Every wire type fixes ``payload_bytes`` when it is built (wrappers add to
the already-known size of what they wrap).  The reference walker below
recomputes the same figure the slow way -- recursively, from the fields, the
way the per-send ``payload_bytes()`` methods used to -- and must agree to the
byte for every type in the four wire modules, nested wrappers included.

The node's charged send reads that figure itself instead of calling
``SizeModel.size_of``; the parity tests at the end hold it to the model's
answer for every sample and for the objects only the model's fallback sizes.
"""

from __future__ import annotations

import inspect

import pytest

from helpers import SizedProbe
from repro.cluster.node import SimNode
from repro.cluster.topologies import lan_topology
from repro.epaxos import messages as epaxos_messages
from repro.epaxos.messages import (
    EAccept,
    EAcceptReply,
    ECommit,
    EPreAccept,
    EPreAcceptReply,
    EPrepare,
    EPrepareReply,
)
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.sizes import SizeModel
from repro.overlay import messages as overlay_messages
from repro.overlay.messages import RelayAggregate, RelayRequest, RelaySubtree
from repro.paxos.replica import MultiPaxosReplica
from repro.protocol import messages as protocol_messages
from repro.protocol.ballot import Ballot
from repro.protocol.messages import (
    ClientReply,
    ClientRequest,
    FillReply,
    FillRequest,
    Heartbeat,
    P1a,
    P1b,
    P2a,
    P2b,
)
from repro.sim.engine import Simulator
from repro.statemachine.command import Command, CommandBatch, CommandResult, NoOp, OpType

METADATA_ONLY = (P1a, P2b, FillRequest, Heartbeat, EAcceptReply, EPrepare)


def _utf8(text) -> int:
    return len(text.encode("utf-8")) if text else 0


def reference_payload(obj) -> int:
    """Payload bytes of ``obj`` recomputed from its fields, nothing memoised."""
    if obj is None or isinstance(obj, str):
        return 0  # absent, or a placeholder that is not a command: nothing to carry
    if isinstance(obj, Command):
        return _utf8(obj.key) + (0 if obj.op is OpType.GET else obj.payload_size)
    if isinstance(obj, CommandBatch):
        return sum(reference_payload(command) for command in obj.commands)
    if isinstance(obj, NoOp):
        return 0
    if isinstance(obj, CommandResult):
        return _utf8(obj.value)
    if isinstance(obj, ClientRequest):
        return reference_payload(obj.command)
    if isinstance(obj, ClientReply):
        return reference_payload(obj.result)
    if isinstance(obj, P1b):
        return sum(reference_payload(command) + 16 for _, command in obj.accepted.values())
    if isinstance(obj, P2a):
        return reference_payload(obj.command)
    if isinstance(obj, FillReply):
        return sum(reference_payload(command) + 16 for _, _, command in obj.entries)
    if isinstance(obj, RelayRequest):
        membership = sum(len(subtree.all_nodes()) for subtree in obj.children)
        return reference_payload(obj.inner) + 4 * membership
    if isinstance(obj, RelayAggregate):
        return sum(reference_payload(response) + 8 for response in obj.responses)
    if isinstance(obj, (EPreAccept, EAccept, ECommit, EPrepareReply)):
        return reference_payload(obj.command) + 12 * len(obj.deps)
    if isinstance(obj, EPreAcceptReply):
        return 12 * len(obj.deps)
    if isinstance(obj, METADATA_ONLY):
        return 0
    raise AssertionError(f"the reference walker does not know {type(obj).__name__}")


BALLOT = Ballot(3, 1)
DEPS = frozenset({(0, 1), (2, 7), (4, 4)})
PUT = Command(OpType.PUT, "k0000012", value="v", payload_size=1280, client_id=1000, request_id=1)
GET = Command(OpType.GET, "k0000012", client_id=1000, request_id=2)
EMPTY_PUT = Command(OpType.PUT, "k", payload_size=0)
DELETE = Command(OpType.DELETE, "k0000003", payload_size=8)
NON_ASCII = Command(OpType.PUT, "clé-键-🔑", payload_size=5)
BATCH = CommandBatch([PUT, GET, EMPTY_PUT, NON_ASCII])
VOTE = P2b(BALLOT, 4, 2, True)
P2A_BATCH = P2a(BALLOT, 4, BATCH, commit_upto=3)
TREE = (RelaySubtree(2, (RelaySubtree(3), RelaySubtree(5, (RelaySubtree(6),)))), RelaySubtree(4))
RELAYED_BATCH = RelayRequest(P2A_BATCH, TREE, agg_id=9, timeout=0.05)
PRE_ACCEPT_REPLY = EPreAcceptReply((0, 1), 2, True, 5, DEPS, changed=True)
LEAF_AGGREGATES = (
    RelayAggregate(9, (VOTE,), origin=3),
    RelayAggregate(9, (VOTE, PRE_ACCEPT_REPLY), origin=5),
)

SAMPLES = [
    PUT, GET, EMPTY_PUT, DELETE, NON_ASCII, BATCH, CommandBatch([GET]), NoOp(),
    CommandResult(1, True), CommandResult(1, True, value=""), CommandResult(1, True, value="né"),
    ClientRequest(PUT), ClientRequest(NON_ASCII),
    ClientReply(1, 1, 1000, True), ClientReply(1, 1, 1000, True, result=CommandResult(1, True, "né")),
    P1a(BALLOT), P1b(BALLOT, 2, True), P1b(BALLOT, 2, True, {4: (BALLOT, BATCH), 5: (BALLOT, NoOp())}),
    P2a(BALLOT, 4, PUT), P2a(BALLOT, 4, NoOp()), P2a(BALLOT, 4, "not a command"), P2A_BATCH, VOTE,
    FillRequest((1, 2), 3), FillReply(((1, BALLOT, PUT), (2, BALLOT, NoOp()), (3, BALLOT, BATCH))),
    Heartbeat(BALLOT, 7),
    RelayRequest(Heartbeat(BALLOT), (), agg_id=1, timeout=0.05), RELAYED_BATCH,
    RelayRequest(EPreAccept((0, 1), BATCH, 5, DEPS), TREE, agg_id=2, timeout=0.05),
    RelayAggregate(9, ()), *LEAF_AGGREGATES,
    # An interior relay's flush: its own vote plus its children's responses.
    RelayAggregate(9, (VOTE, *LEAF_AGGREGATES[0].responses, *LEAF_AGGREGATES[1].responses), origin=2),
    EPreAccept((0, 1), NON_ASCII, 5, DEPS), EPreAccept((0, 1), PUT, 1, frozenset()),
    PRE_ACCEPT_REPLY, EAccept((0, 1), BATCH, 5, DEPS), EAcceptReply((0, 1), 2, True),
    EPrepare((0, 1), (1, 2)),
    EPrepareReply((0, 1), 2, True, (1, 2), "accepted", 5, DEPS, PUT, (0, 0), False),
    EPrepareReply((0, 1), 2, True, (1, 2), "unknown", 0, frozenset(), None, (0, 0), False),
    ECommit((0, 1), NoOp(), 5, DEPS), ECommit((0, 1), BATCH, 5, DEPS),
]


def _wire_types():
    """Every message class of the three message modules, plus the command types."""
    found = {Command, CommandBatch, CommandResult, NoOp}
    for module in (protocol_messages, overlay_messages, epaxos_messages):
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, Message) and cls.__module__ == module.__name__:
                found.add(cls)
    found.discard(overlay_messages.OverlayMessage)  # marker base, never instantiated
    return found


def test_every_wire_type_has_a_sample():
    assert {type(sample) for sample in SAMPLES} >= _wire_types()


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda sample: type(sample).__name__)
def test_memoised_size_equals_reference_walk(sample):
    expected = reference_payload(sample)
    assert sample.payload_bytes == expected
    if isinstance(sample, Message):
        assert SizeModel(header_bytes=64).size_of(sample) == 64 + expected


def test_sizes_the_test_depends_on_are_not_trivially_zero():
    assert reference_payload(NON_ASCII) == len("clé-键-🔑".encode("utf-8")) + 5 > len("clé-键-🔑") + 5
    assert reference_payload(EMPTY_PUT) == 1
    assert reference_payload(RELAYED_BATCH) == reference_payload(BATCH) + 4 * 5
    assert reference_payload(LEAF_AGGREGATES[1]) == 8 + (12 * 3 + 8)


# ------------------------------------------------------- the charged send's size
class _Unfilled(Message):
    """A wire type whose ``payload_bytes`` slot its constructor forgot to fill."""

    __slots__ = ("payload_bytes",)


def _bytes_out_after_one_send(message, header_bytes: int) -> int:
    """``node.0.bytes_out`` after node 0's replica sends ``message`` once."""
    sim = Simulator(seed=0)
    network = SimNetwork(sim, lan_topology(2), size_model=SizeModel(header_bytes=header_bytes))
    host = SimNode(0, sim, network).host(MultiPaxosReplica(), [0, 1], 0)
    host.send(1, message)
    return sim.metrics.counter("node.0.bytes_out").value


#: The samples (metadata-only types among them, sized by the ``Message``
#: default of 0) plus a bare object carrying a negative payload (never below
#: the header), one carrying a positive payload, and one that carries none.
PARITY_SAMPLES = [*SAMPLES, SizedProbe(-5), SizedProbe(40), object()]


@pytest.mark.parametrize("header_bytes", [64, 0])
@pytest.mark.parametrize("sample", PARITY_SAMPLES, ids=lambda sample: type(sample).__name__)
def test_charged_send_sizes_like_the_size_model(sample, header_bytes):
    """``SimNode._send_as`` reads the size inline; it must agree with ``SizeModel``."""
    expected = SizeModel(header_bytes=header_bytes).size_of(sample)
    assert _bytes_out_after_one_send(sample, header_bytes) == expected


def test_charged_send_of_an_unfilled_message_raises():
    with pytest.raises(AttributeError):
        SizeModel().size_of(_Unfilled())
    with pytest.raises(AttributeError):
        _bytes_out_after_one_send(_Unfilled(), 64)
