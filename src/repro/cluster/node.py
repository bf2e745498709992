"""The simulated machine and the replicas it hosts.

``SimNode`` is a physical machine.  Its CPU is a single-server queue
implemented with a ``busy_until`` reservation: every received message, sent
message, executed command and unit of protocol bookkeeping reserves service
time, so a node that must touch many messages per round saturates and its
queueing delay shows up in client latency -- exactly the leader bottleneck
the paper studies.

Every replica runs in a :class:`ShardReplicaHost`, one per consensus group
the machine is a member of: the network :class:`~repro.net.network.Endpoint`
and the :class:`~repro.protocol.base.NodeContext` of that one replica.  An
unsharded cluster is the one-group case: each machine hosts shard 0, whose
endpoint id is the node id itself.

There is one charged send and one charged receive (``SimNode._send_as`` /
``SimNode._arrive_for``), parameterised by the endpoint id the traffic
travels under and the handler table it is dispatched through.  Every host
binds the same bodies to its own endpoint, so all of a machine's replicas
queue on its CPU through identical arithmetic.  Dispatch happens at arrival:
the replica's handler itself is queued behind the receive cost.  Crashes
are fail-stop, as in the paper: :meth:`SimNode.crash` drops every send,
handler and replica timer the machine had queued, and ``_arrive_for``
black-holes what lands while it is down.
"""

from __future__ import annotations

import random
from functools import partial
from heapq import heapify, heappush
from typing import Any, Callable, List, Optional, Sequence

from repro.cluster.cpu import NodeCPUModel
from repro.net.network import SimNetwork
from repro.protocol.base import HandlerTable, Replica, TimerLike
from repro.protocol.messages import ClientRequest
from repro.shard.addressing import shard_endpoint
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRegistry


class SimNode:
    """A machine: one CPU queue shared by the replicas it hosts."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: SimNetwork,
        cpu: Optional[NodeCPUModel] = None,
    ) -> None:
        self.node_id = node_id
        self._sim = sim
        self._network = network
        self._cpu = cpu or NodeCPUModel()
        #: One replica host per consensus group, in shard order.
        self.hosts: List[ShardReplicaHost] = []

        self._busy_until = 0.0
        self._crashed = False
        self._sluggish_factor = 1.0
        self._busy_time_total = 0.0
        # CPU-model and size-model constants bound once for the inlined
        # send/receive paths and the execution charge (both models are
        # immutable; sluggish faults only scale ``_sluggish_factor``).
        self._recv_per_message = self._cpu.recv_per_message
        self._send_per_message = self._cpu.send_per_message
        self._per_byte = self._cpu.per_byte
        self._client_request_extra = self._cpu.client_request_extra
        self._execute_per_command = self._cpu.execute_per_command
        self._network_send = network.send
        self._size_of = network.size_model.size_of
        self._header_bytes = network.size_model.header_bytes
        self._delivered = network.delivered
        self._undeliverable = network.undeliverable
        self._messages_in = sim.metrics.counter(f"node.{node_id}.messages_in")
        self._messages_out = sim.metrics.counter(f"node.{node_id}.messages_out")
        self._bytes_in = sim.metrics.counter(f"node.{node_id}.bytes_in")
        self._bytes_out = sim.metrics.counter(f"node.{node_id}.bytes_out")

    # ------------------------------------------------------------------ wiring
    def host(self, replica: Replica, members: Sequence[int], shard: int) -> "ShardReplicaHost":
        """Run ``replica`` as this machine's member of ``shard``'s group.

        ``members`` are the group's endpoint ids; hosts are added in shard
        order, so ``hosts[s]`` is shard ``s``'s.
        """
        host = ShardReplicaHost(self, replica, members, shard)
        self.hosts.append(host)
        return host

    @property
    def replica(self) -> Replica:
        """Shard 0's replica: the only one on an unsharded cluster."""
        return self.hosts[0].replica

    # ------------------------------------------------------------------ CPU model
    def _send_as(self, endpoint_id: int, dst: int, message: Any) -> None:
        """Charge this machine's CPU for a send, then hand it to the network.

        The one charged-send body: ``endpoint_id`` is the hosted replica the
        message travels as.  The wire size is computed once here and passed
        through to the network: ``SizeModel.size_of`` inlined for a wire
        type, which only has to read its ``payload_bytes``; anything without
        one goes through the model itself (header-only for a non-wire
        object, an error for a ``Message``).  Nothing runs on a crashed
        machine, so nothing sends from one; a send queued before a crash
        never departs (see :meth:`crash`).
        """
        try:
            payload = message.payload_bytes
        except AttributeError:
            size = self._size_of(message)
        else:
            # A negative payload never shrinks a message below its header.
            size = self._header_bytes + payload if payload > 0 else self._header_bytes
        # Same reservation arithmetic as _reserve, inlined -- keep the
        # operation order identical so times stay bit-for-bit reproducible.
        cost = (self._send_per_message + self._per_byte * size) * self._sluggish_factor
        sim = self._sim
        now = sim.now
        busy = self._busy_until
        ready_at = (now if now > busy else busy) + cost
        self._busy_until = ready_at
        self._busy_time_total += cost
        self._messages_out.value += 1
        self._bytes_out.value += size
        # Inlined Simulator.post_at -- canonical entry layout lives there.
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (ready_at, seq, self._network_send, (endpoint_id, dst, message, size)))

    def _arrive_for(self, handlers: HandlerTable, src: int, message: Any, size: int) -> None:
        """A message lands on this machine: count it, charge CPU, queue its handler.

        The one charged-receive body, called directly by the network's
        delivery event.  Dispatch happens here, at arrival: the completion
        event is ``handlers[type(message)](src, message)`` itself, with no
        frame in between.  Reachability is judged here too: a machine that
        crashed after the send black-holes the message.  A crash that lands
        while the handler is still queued is :meth:`crash`'s to catch.
        """
        if self._crashed:
            self._undeliverable.value += 1
            return
        self._delivered.value += 1
        # Same reservation arithmetic as _reserve, inlined (see _send_as).
        cost = self._recv_per_message + self._per_byte * size
        if type(message) is ClientRequest:
            cost += self._client_request_extra
        cost *= self._sluggish_factor
        sim = self._sim
        now = sim.now
        busy = self._busy_until
        ready_at = (now if now > busy else busy) + cost
        self._busy_until = ready_at
        self._busy_time_total += cost
        self._messages_in.value += 1
        self._bytes_in.value += size
        # Inlined Simulator.post_at -- canonical entry layout lives there.
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (ready_at, seq, handlers[type(message)], (src, message)))

    def charge_execution(self, commands: int = 1) -> None:
        self._reserve(self._execute_per_command * commands)

    def charge_graph_work(self, vertices: int) -> None:
        if vertices > 0:
            self._reserve(self._cpu.graph_cost(vertices))

    def charge_overhead(self, units: float = 1.0) -> None:
        """Charge protocol bookkeeping (used by EPaxos per handled instance)."""
        self._reserve(self._cpu.epaxos_bookkeeping_cost * units)

    @property
    def busy_until(self) -> float:
        return self._busy_until

    @property
    def busy_time_total(self) -> float:
        """Cumulative CPU-seconds consumed; busy_time_total / elapsed = utilization."""
        return self._busy_time_total

    def _reserve(self, cost: float) -> None:
        """Reserve ``cost`` seconds on the node's CPU (single-server queue)."""
        cost *= self._sluggish_factor
        now = self._sim.now
        busy = self._busy_until
        self._busy_until = (now if now > busy else busy) + cost
        self._busy_time_total += cost

    # ------------------------------------------------------------------ faults
    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Fail-stop: drop all the work this machine had queued, and stop.

        One pass rebuilds the event heap without this machine's queued
        sends (taken back out of ``node.<id>.messages_out``/``bytes_out``:
        they never leave), its hosts' queued handlers and its replicas'
        timers (``Event.owner``; cancelled), and gives back the CPU time
        reserved for that work.  Until :meth:`recover`,
        :meth:`_arrive_for` black-holes every arrival, so nothing of this
        machine runs while it is down and nothing it had queued runs after.
        Every hosted replica goes down with it; only their crash hooks need
        calling.
        """
        if self._crashed:
            return
        self._crashed = True
        self._sim.metrics.counter("faults.crashes").increment()
        # The CPU time reserved past now was for work that never runs.
        now = self._sim.now
        if self._busy_until > now:
            self._busy_time_total -= self._busy_until - now
            self._busy_until = now
        handlers = set()
        for host in self.hosts:
            table = host.replica.handlers
            handlers.update(table.values())
            handlers.add(table._unknown)
        heap = self._sim._heap
        send = self._network_send
        kept = []
        # Timers are (time, seq, Event, None), call entries (time, seq,
        # callback, args): see Simulator.schedule and post_at.
        for entry in heap:
            payload, args = entry[2], entry[3]
            if args is None:
                if payload.owner is self:
                    payload.cancel()
                    continue
            elif payload is send:
                self._messages_out.value -= 1
                self._bytes_out.value -= args[3]
                continue
            elif payload in handlers:
                continue
            kept.append(entry)
        # In place, as compaction does: the run loop holds this list.
        heap[:] = kept
        heapify(heap)
        for host in self.hosts:
            host.replica.on_crash()

    def recover(self) -> None:
        if not self._crashed:
            return
        self._crashed = False
        self._busy_until = self._sim.now
        self._sim.metrics.counter("faults.recoveries").increment()
        for host in self.hosts:
            host.replica.on_recover()

    def set_sluggish(self, factor: float) -> None:
        """Make the node's CPU ``factor`` times slower (1.0 restores normal speed)."""
        if not factor > 0:
            raise ValueError("sluggish factor must be positive")
        self._sluggish_factor = factor
        self._sim.metrics.counter("faults.sluggish_changes").increment()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self._crashed else "up"
        return f"SimNode({self.node_id}, {state})"


class ShardReplicaHost:
    """One consensus group's replica, hosted on a :class:`SimNode`.

    Every physical node runs one replica *per consensus group*, each in one
    of these.  The host is a full network
    :class:`~repro.net.network.Endpoint` and
    :class:`~repro.protocol.base.NodeContext` registered under the shard's
    endpoint id (``shard * SHARD_ENDPOINT_STRIDE + node_id``; the node id
    itself for shard 0), but it owns **no CPU of its own**: every
    receive/send/execute reserves time on the machine's single-server
    queue, so co-hosted groups contend for the machine exactly like
    co-located processes would -- the contention the multi-group scaling
    curve has to respect to be honest.

    Fault coupling follows from the same principle: crashed/sluggish state
    lives on the machine (a machine crash takes down all its groups), and
    the per-node traffic counters (``node.<id>.messages_*``) aggregate
    every hosted replica so ``bottleneck_node`` stays a statement about
    physical machines.  Only the RNG stream (``node-<endpoint_id>``) and
    the replica's protocol state are per-shard.
    """

    def __init__(
        self, machine: SimNode, replica: Replica, members: Sequence[int], shard: int
    ) -> None:
        self.shard = shard
        self.endpoint_id = shard_endpoint(shard, machine.node_id)
        self._machine = machine
        self._sim = machine._sim
        # NodeContext fields fixed for the host's lifetime: plain attributes,
        # so a replica's read is not a call (``now`` and ``crashed`` read
        # live state and stay properties).
        self.node_id = self.endpoint_id
        self.all_nodes: Sequence[int] = list(members)
        self.rng: random.Random = self._sim.random.stream(f"node-{self.endpoint_id}")
        self.metrics: MetricsRegistry = self._sim.metrics
        # The replica's clock (Replica.bind): the simulator, whose ``now``
        # is a plain attribute, so a hot-path clock read is not a call.
        self.clock = self._sim
        # The machine's charged send/receive, under this shard's endpoint id
        # and dispatching through this shard's replica's handler table (built
        # by bind); every other CPU charge is the machine's own method.
        self.send = partial(machine._send_as, self.endpoint_id)
        self.charge_execution = machine.charge_execution
        self.charge_graph_work = machine.charge_graph_work
        self.charge_overhead = machine.charge_overhead
        self.replica = replica
        replica.bind(self)
        self.arrive = partial(machine._arrive_for, replica.handlers)
        machine._network.register(self)

    # ------------------------------------------------------------------ NodeContext API
    @property
    def now(self) -> float:
        return self._sim.now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> TimerLike:
        """A replica timer, owned by the machine: its crash cancels it."""
        event = self._sim.schedule(delay, callback, *args)
        event.owner = self._machine
        return event

    # ------------------------------------------------------------------ faults
    @property
    def crashed(self) -> bool:
        return self._machine._crashed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self._machine._crashed else "up"
        return f"ShardReplicaHost(shard={self.shard}, node={self._machine.node_id}, {state})"
