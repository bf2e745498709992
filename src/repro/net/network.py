"""The simulated network fabric.

``SimNetwork`` connects endpoints (hosted replicas and clients).  Latency
and faults are between *machines*: every endpoint id folds onto its machine
modulo ``SHARD_ENDPOINT_STRIDE`` (:mod:`repro.net.topology`) before a link
is priced or a drop judged, so a node id is its own machine and every
shard's replica on it shares that machine's links.  Sending a message:

1. fetches the ``(src, dst)`` link record -- the destination's arrival entry,
   the locality counters and the static part of the link delay, resolved on
   the link's first send,
2. counts the attempt (globally, per message type, per locality level),
3. consults :class:`~repro.net.faults.NetworkFaults` (drops, partitions),
4. computes delivery time = one-way latency (the record's draw) +
   transmission time, and
5. schedules ``arrive(src, message, size)`` on the destination at that time.

There is no envelope: the message object itself travels, shared by
reference, and the sender and wire size ride in the delivery event's args.
Per-link state is resolved once; fault state never is: drops and partitions
are judged on every send, and whether the destination is up is judged by its
arrival entry when the message lands.

CPU cost of sending/receiving is *not* modelled here; it is charged by the
node model (:mod:`repro.cluster.node`), because that per-message processing
cost at the leader is exactly the bottleneck the paper is about.

Communication-cost accounting: every attempted send increments global
message/byte counters plus per-message-type pairs (``net.sent.<Kind>`` and
``net.sent_bytes.<Kind>``); the nodes add per-node directional counters
(``node.<id>.messages_in/out``, ``node.<id>.bytes_in/out``).  The helpers in
:mod:`repro.sim.metrics` (``node_traffic``, ``bottleneck_node``) aggregate
these into the paper-style "messages and bytes at the bottleneck node"
tables emitted by ``benchmarks/bench_scenarios.py``.
"""

from __future__ import annotations

from heapq import heappush
from math import cos, log, pi, sin, sqrt
from typing import Any, Dict, Optional, Protocol

from repro.errors import NetworkError
from repro.net.faults import NetworkFaults
from repro.net.sizes import SizeModel
from repro.net.topology import SHARD_ENDPOINT_STRIDE, Topology
from repro.sim.engine import Simulator

_TWO_PI = 2.0 * pi


class Endpoint(Protocol):
    """Anything that can receive messages from the network."""

    endpoint_id: int

    def arrive(self, src: int, message: Any, size: int) -> None:
        """Accept ``message`` from endpoint ``src`` at its delivery time.

        ``size`` is its wire size in bytes.  The delivery event calls this
        directly, so the endpoint judges its own reachability *now*: a
        crashed endpoint counts the message on
        :attr:`SimNetwork.undeliverable` and black-holes it, a live one
        counts it on :attr:`SimNetwork.delivered` and processes it.
        """


class SimNetwork:
    """Delivers messages between registered endpoints with latency and faults."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        size_model: Optional[SizeModel] = None,
        faults: Optional[NetworkFaults] = None,
    ) -> None:
        self._sim = sim
        self._size_model = size_model or SizeModel()
        self._faults = faults or NetworkFaults()
        self._endpoints: Dict[int, Endpoint] = {}
        self._rng = sim.random.stream("network")
        self._random = self._rng.random
        self._metrics = sim.metrics
        self._latency = topology.latency
        # Kept as a division (not a cached reciprocal) so delivery times stay
        # bit-identical with the historical `size / bandwidth` computation.
        self._bandwidth = topology.bandwidth_bytes_per_sec or 0.0
        # Hot-path counters are resolved once; per-kind counter pairs are
        # cached per message *type* so the send path does no per-send string
        # formatting and no dynamic `kind` lookup.
        self._sent_counter = self._metrics.counter("net.messages_sent")
        self._bytes_counter = self._metrics.counter("net.bytes_sent")
        self._dropped_counter = self._metrics.counter("net.messages_dropped")
        self._duplicated_counter = self._metrics.counter("net.messages_duplicated")
        #: Bumped by the endpoints' arrival entries (see :class:`Endpoint`).
        self.delivered = self._metrics.counter("net.messages_delivered")
        self.undeliverable = self._metrics.counter("net.messages_undeliverable")
        self._kind_counters: Dict[type, tuple] = {}
        self._region_map = topology.region_map()
        self._zone_map = topology.zone_map()
        # (src, dst) -> (arrive, locality counters, *LinkDelay): what is
        # fixed per link for the run, so every send after the link's first is
        # one probe.  The LinkDelay fields are the latency model's static
        # part (LatencyModel.link).
        self._links: Dict[tuple, tuple] = {}

    # ----------------------------------------------------------------- wiring
    @property
    def faults(self) -> NetworkFaults:
        return self._faults

    @property
    def size_model(self) -> SizeModel:
        return self._size_model

    def register(self, endpoint: Endpoint) -> None:
        endpoint_id = endpoint.endpoint_id
        if endpoint_id in self._endpoints:
            raise NetworkError(f"endpoint {endpoint_id} is already registered")
        self._endpoints[endpoint_id] = endpoint

    # ----------------------------------------------------------------- sending
    def send(self, src: int, dst: int, message: Any, size: Optional[int] = None) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        ``size`` lets a caller that already computed the wire size (the node
        CPU model charges for it before the message reaches the fabric) pass
        it through instead of re-deriving it.  A dropped message is counted
        as attempted and never arrives.
        """
        try:
            arrive, locality, base, low, width, stddev, floor = self._links[(src, dst)]
        except KeyError:
            arrive, locality, base, low, width, stddev, floor = self._resolve_link(src, dst)
        sim = self._sim
        now = sim.now
        if size is None:
            size = self._size_model.size_of(message)
        self._sent_counter.value += 1
        self._bytes_counter.value += size
        try:
            counters = self._kind_counters[type(message)]
        except KeyError:
            kind = getattr(message, "kind", None)
            if kind is None:
                kind = type(message).__name__
            counters = self._kind_counters[type(message)] = (
                self._metrics.counter(f"net.sent.{kind}"),
                self._metrics.counter(f"net.sent_bytes.{kind}"),
            )
        counters[0].value += 1
        counters[1].value += size
        for counter in locality:
            counter.value += 1

        faults = self._faults
        if faults.lossy and faults.should_drop(src, dst, self._rng):
            self._dropped_counter.value += 1
            return

        # The draw stays per send, on the "network" stream, with the
        # arithmetic of the model's delay(); only the link's static part
        # comes from the record.
        if stddev is not None:
            # random.Random.gauss inlined, as NormalLatency.delay does.
            rng = self._rng
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                uniform = self._random
                x2pi = uniform() * _TWO_PI
                g2rad = sqrt(-2.0 * log(1.0 - uniform()))
                z = cos(x2pi) * g2rad
                rng.gauss_next = sin(x2pi) * g2rad
            value = base + z * stddev
            delay = value if value > floor else floor
        elif low is None:
            delay = base
        else:
            delay = base * (low + width * self._random())
        bandwidth = self._bandwidth
        if bandwidth:
            delay += size / bandwidth
        # Inlined Simulator.post_at (canonical entry layout lives there):
        # delivery is the hottest scheduling site of all.  The rare duplicate
        # copy below goes through sim.post_at instead.
        args = (src, message, size)
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (now + delay, seq, arrive, args))
        if faults.duplicate_probability and faults.should_duplicate(src, dst, self._rng):
            # A retransmitted copy of the same message with its own latency
            # draw; protocols must tolerate it (at-most-once execution,
            # per-voter reply dedup).
            self._duplicated_counter.value += 1
            delay = self._latency.delay(
                src % SHARD_ENDPOINT_STRIDE, dst % SHARD_ENDPOINT_STRIDE, self._rng
            )
            if bandwidth:
                delay += size / bandwidth
            sim.post_at(now + delay, arrive, args)

    def _resolve_link(self, src: int, dst: int) -> tuple:
        """Build the ``(src, dst)`` link record on the link's first send.

        The delay is the one between the two ends' machines: every endpoint
        id folds onto its machine modulo ``SHARD_ENDPOINT_STRIDE``, so
        co-hosted replicas of different shards are one ``localhost`` apart
        and a WAN link is equally wide for every group that crosses it.
        An unknown ``dst`` raises and is not remembered, so a later
        ``register`` + send succeeds.
        """
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            raise NetworkError(f"cannot send to unknown endpoint {dst}")
        link = (
            endpoint.arrive,
            self._classify_locality(src, dst),
            *self._latency.link(src % SHARD_ENDPOINT_STRIDE, dst % SHARD_ENDPOINT_STRIDE),
        )
        self._links[(src, dst)] = link
        return link

    def _classify_locality(self, src: int, dst: int) -> tuple:
        """Counters to bump for a (src, dst) pair, resolved once per pair.

        A message between two region-placed nodes is region-local or
        region-crossing; when both ends are also zone-placed it is
        additionally zone-local or zone-crossing (zone names are
        region-qualified, so a region crossing is always a zone crossing
        too).  Pairs with an unplaced end (clients, shard-group endpoints,
        every pair of a LAN topology) classify as nothing.
        """
        src_region = self._region_map.get(src)
        dst_region = self._region_map.get(dst)
        if src_region is None or dst_region is None:
            return ()
        scope = "local" if src_region == dst_region else "cross"
        counters = [self._metrics.counter(f"region.{scope}_messages")]
        src_zone = self._zone_map.get(src)
        dst_zone = self._zone_map.get(dst)
        if src_zone is not None and dst_zone is not None:
            scope = "local" if src_zone == dst_zone else "cross"
            counters.append(self._metrics.counter(f"zone.{scope}_messages"))
        return tuple(counters)
