"""Replica base class and the context interface replicas run against.

A replica is a pure protocol state machine: it reacts to incoming messages
and timer callbacks, and it affects the world only through its
:class:`NodeContext`.  The context is implemented by
:class:`repro.cluster.node.ShardReplicaHost`, one per consensus group a
machine (:class:`repro.cluster.node.SimNode`) hosts.

Every replica also owns a :class:`~repro.overlay.base.FanoutOverlay` through
which it routes wide-cast (one-to-many) messages; the base class provides
the :class:`~repro.overlay.base.OverlayHost` surface the overlay calls back
into, three tables built by :meth:`Replica.bind`: ``handlers`` for the
overlay's own wire types, ``relayed`` for a message a relay tree delivered,
and ``votes`` for the votes of one relay aggregate, handed over as a tuple
in one call.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Optional, Protocol, Sequence, Tuple

from repro.overlay.base import FanoutOverlay
from repro.overlay.direct import DirectFanout
from repro.protocol.messages import ClientReply
from repro.sim.metrics import Counter, MetricsRegistry
from repro.statemachine.command import CommandBatch


class TimerLike(Protocol):
    """Minimal interface of the handle returned by ``NodeContext.schedule``."""

    def cancel(self) -> None: ...


class NodeContext(Protocol):
    """Everything a replica may ask of the node hosting it."""

    @property
    def node_id(self) -> int: ...

    @property
    def all_nodes(self) -> Sequence[int]:
        """Ids of every consensus node in the cluster, including this one."""
        ...

    @property
    def now(self) -> float: ...

    @property
    def clock(self) -> Any:
        """What replicas read the time from, as ``clock.now``.

        A plain ``now`` attribute (the simulator's), so a hot-path clock
        read is not a call; a context may be its own clock.
        """
        ...

    @property
    def rng(self) -> random.Random: ...

    @property
    def metrics(self) -> MetricsRegistry: ...

    def send(self, dst: int, message: Any) -> None: ...

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> TimerLike: ...

    def charge_execution(self, commands: int = 1) -> None:
        """Charge CPU time for applying ``commands`` to the state machine."""
        ...

    def charge_graph_work(self, vertices: int) -> None:
        """Charge CPU time for dependency-graph traversal (EPaxos execution)."""
        ...

    def charge_overhead(self, units: float = 1.0) -> None:
        """Charge per-instance protocol bookkeeping (EPaxos dependency tracking)."""
        ...


#: A message handler: ``handler(src, message)``.
Handler = Callable[[int, Any], None]

#: A relayed-message handler: ``handler(src, inner)`` applies a message a
#: relay tree delivered and *returns* the vote (or None) instead of sending it.
RelayedHandler = Callable[[int, Any], Optional[Any]]

#: An aggregated-vote handler: ``handler(src, votes)`` takes the tuple of
#: votes one relay aggregate carried to the fan-out root.
VotesHandler = Callable[[int, Tuple[Any, ...]], None]


class HandlerTable(dict):
    """``type(message) -> handler``; an unlisted type resolves to ``unknown``.

    ``table[type(message)](src, message)`` is the whole of message dispatch,
    whoever performs it: the host node for a delivered message,
    :meth:`Replica._on_votes` for each vote of a relay aggregate,
    :meth:`Replica.on_message` for everything else.  On
    :attr:`Replica.relayed` the relay overlay applies a message it
    delivered, and on :attr:`Replica.votes` the fan-out root hands over an
    aggregate's votes, ``table[type(votes[0])](src, votes)``.  Exact types
    only -- a wire type is never subclassed.
    """

    __slots__ = ("_unknown",)

    def __init__(self, handlers: Dict[type, Handler], unknown: Handler) -> None:
        super().__init__(handlers)
        self._unknown = unknown

    def __missing__(self, kind: type) -> Handler:
        return self._unknown


class Replica(ABC):
    """Base class for protocol replicas.

    Subclasses implement :meth:`_handlers` and :meth:`start`.  The host node
    wires itself in through :meth:`bind` before the simulation (or server)
    starts delivering messages.
    """

    protocol_name = "abstract"

    #: Host node id; a plain attribute (not a property) because protocol code
    #: reads it on nearly every message.  -1 until :meth:`bind` runs.
    node_id: int = -1

    #: Every consensus node except this one, filled in once by :meth:`bind`
    #: (the node set never changes during a run); unset until then.
    peers: Tuple[int, ...]

    def __init__(self, overlay: Optional[FanoutOverlay] = None) -> None:
        #: The host node's context; a plain attribute like ``node_id``.  None
        #: until :meth:`bind`, so unbound use fails with an AttributeError.
        self.ctx: Optional[NodeContext] = None
        #: Where the replica reads the time, as ``self.clock.now``: the
        #: context's ``clock``, set by :meth:`bind`.
        self.clock: Any = None
        #: The dispatch table (:class:`HandlerTable`), built by :meth:`bind`.
        self.handlers: Optional[HandlerTable] = None
        #: The relayed-message table (:meth:`_relayed_handlers`), built by
        #: :meth:`bind` next to ``handlers``.
        self.relayed: Optional[HandlerTable] = None
        #: The aggregated-vote table (:meth:`_vote_handlers`), built by
        #: :meth:`bind` next to ``handlers``.
        self.votes: Optional[HandlerTable] = None
        self._overlay: FanoutOverlay = overlay or DirectFanout()
        self._overlay.bind(self)
        # Per-replica counter cache: ``count()`` fires on most protocol
        # steps, and resolving "<protocol>.<name>" through the registry
        # costs an f-string + dict lookup each time.
        self._counter_cache: dict = {}

    # ----------------------------------------------------------------- wiring
    def bind(self, ctx: NodeContext) -> None:
        """Attach the replica to its host node context."""
        self.ctx = ctx
        self.clock = ctx.clock
        self._counter_cache.clear()
        # Shadow the class-level send helper with the context's bound method:
        # replica sends are the hottest protocol->node edge, and the instance
        # attribute skips two call hops (Replica.send and the ctx property).
        self.send = ctx.send
        self.node_id = node_id = ctx.node_id
        # A list, not a generator: the profiler counts each resumption.
        self.peers = tuple([n for n in ctx.all_nodes if n != node_id])
        # The protocol's own wire types plus the bound overlay's, which are
        # dispatched straight to the overlay's handlers.
        self.handlers = HandlerTable(
            {**self._handlers(), **self._overlay.handlers()}, self._on_unknown_message
        )
        # A relayed type with no vote to capture goes through ordinary
        # dispatch, and on_message returns None: the relay has nothing to
        # aggregate for it.
        self.relayed = HandlerTable(self._relayed_handlers(), self.on_message)
        # A vote type with no aggregate handler is fed vote by vote through
        # ordinary dispatch.
        self.votes = HandlerTable(self._vote_handlers(), self._on_votes)

    @property
    def overlay(self) -> FanoutOverlay:
        """The fan-out overlay this replica's wide-casts route through."""
        return self._overlay

    @property
    def cluster_size(self) -> int:
        return len(self.ctx.all_nodes)

    # ----------------------------------------------------------------- hooks
    def start(self) -> None:
        """Called once when the node starts (bootstrap timers, elections...)."""

    @abstractmethod
    def _handlers(self) -> Dict[type, Handler]:
        """This protocol's wire types and the bound methods that handle them."""

    def _relayed_handlers(self) -> Dict[type, RelayedHandler]:
        """The wire types whose relayed copy must *return* its response.

        The relay overlay needs a follower's vote returned rather than sent,
        so it can aggregate it with its subtree's.  Protocols whose voting
        rounds travel through relay trees list those types here; every
        other relayed type is fed through ordinary dispatch (correct for
        fire-and-forget traffic) and yields no response.
        """
        return {}

    def _vote_handlers(self) -> Dict[type, VotesHandler]:
        """The vote types a relay root hands over a whole aggregate at a time.

        An aggregate holds every vote a relay tree gathered for one relayed
        message, so all of one type.  Listing that type lets the protocol
        count the tuple in one call; every other type takes
        :meth:`_on_votes`, one ordinary dispatch per vote.
        """
        return {}

    def _on_votes(self, src: int, votes: Tuple[Any, ...]) -> None:
        """Feed an aggregate's votes, in order, through ordinary dispatch."""
        handlers = self.handlers
        for vote in votes:
            handlers[type(vote)](src, vote)

    def on_message(self, src: int, message: Any) -> None:
        """Handle a message delivered off the wire from endpoint ``src``."""
        self.handlers[type(message)](src, message)

    def _on_unknown_message(self, src: int, message: Any) -> None:
        """A message of a type nothing is registered for: counted and dropped."""
        self.count("unknown_message")

    def on_crash(self) -> None:
        """Called when the host node crashes (volatile state may be dropped)."""
        self._overlay.on_crash()

    def on_recover(self) -> None:
        """Called when the host node recovers from a crash."""

    # ----------------------------------------------------------------- helpers
    def send(self, dst: int, message: Any) -> None:
        self.ctx.send(dst, message)

    def _reply_to_clients(
        self,
        clients: Sequence[Tuple[int, int]],
        command: Any,
        result: Any,
        leader_hint: Optional[int] = None,
    ) -> None:
        """Answer every issuing client with the result of its own command.

        The one place a successful :class:`ClientReply` is built.
        ``clients`` is the ``(client_id, request_id)`` routing recorded at
        proposal time, ``command`` what was decided and ``result`` what
        applying it returned: one pair, a command and its result, or -- for
        a :class:`CommandBatch` -- a pair per sub-command and the tuple of
        their results, all in batch order.  The caller has already applied
        its protocol's orphan rule: what was decided is what it proposed.
        """
        if type(command) is CommandBatch:
            commands, results = command.commands, result
        else:
            commands, results = (command,), (result,)
        for (client_id, request_id), answered, its_result in zip(clients, commands, results):
            if client_id < 0:
                continue
            self.send(client_id, ClientReply(
                command_uid=answered.uid,
                request_id=request_id,
                client_id=client_id,
                success=True,
                result=its_result,
                leader_hint=leader_hint,
            ))
            self.count("client_replies")

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment a protocol-level metric counter namespaced by node id."""
        counter = self._counter_cache.get(name)
        if counter is None:
            counter = self.ctx.metrics.counter(f"{self.protocol_name}.{name}")
            self._counter_cache[name] = counter
        counter.value += amount

    def counter(self, name: str) -> Counter:
        """The counter :meth:`count` increments for ``name``, created if new.

        For code that counts on every round: holding the counter makes each
        increment one ``+=``.  Ask for it only when about to increment, so a
        counter still appears only once something has counted on it.
        """
        counter = self._counter_cache.get(name)
        if counter is None:
            counter = self.ctx.metrics.counter(f"{self.protocol_name}.{name}")
            self._counter_cache[name] = counter
        return counter
