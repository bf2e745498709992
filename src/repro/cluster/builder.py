"""Cluster builder: wires simulator, network, nodes, replicas and clients.

``ClusterBuilder`` (or the convenience :func:`build_cluster`) assembles a
fully configured simulated deployment of one of the three protocols, plus
closed-loop benchmark clients and an optional fault schedule.  The returned
:class:`Cluster` is what examples, tests and the benchmark harness run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.cpu import NodeCPUModel
from repro.cluster.faults import FaultKind, FaultSchedule
from repro.cluster.node import ShardReplicaHost, SimNode
from repro.cluster.topologies import lan_topology
from repro.errors import ConfigurationError
from repro.net.faults import NetworkFaults
from repro.net.network import SimNetwork
from repro.net.sizes import SizeModel
from repro.net.topology import Topology
from repro.overlay.config import OverlayConfig
from repro.protocol.config import ProtocolConfig
from repro.protocol.resolver import PROTOCOLS, ConfigLike, build_replica, resolve_config
from repro.shard.addressing import (
    SHARD_ENDPOINT_STRIDE,
    ShardAwareLatency,
    physical_node,
    shard_endpoint,
)
from repro.shard.router import ShardMap, ShardRouter, round_robin_leaders
from repro.sim.engine import Simulator
from repro.workload.client import ClosedLoopClient
from repro.workload.spec import WorkloadSpec

#: Client endpoint ids start here so they never collide with node ids.
CLIENT_ID_BASE = 1000


class ShardGroupView:
    """One shard's consensus group, viewed as a mini-cluster for the checkers.

    Exposes exactly the surface the invariant checkers consume from
    :class:`Cluster`: a ``nodes`` mapping (insertion-ordered by ascending
    member endpoint id) whose values carry ``.replica`` and ``.crashed``,
    plus :meth:`committed_prefixes`.  Each shard's group is checked in
    isolation -- cross-shard consistency is the per-key linearizability
    checker's job, which needs no adapter because keys never span shards.
    """

    def __init__(self, shard: int, nodes: Dict[int, object]) -> None:
        self.shard = shard
        self.nodes = nodes

    def committed_prefixes(self) -> Dict[int, List[Optional[int]]]:
        prefixes: Dict[int, List[Optional[int]]] = {}
        # lint: ok(no-unordered-iteration) nodes insertion order is ascending member endpoint id (built from sorted topology.node_ids)
        for node_id, node in self.nodes.items():
            log = getattr(node.replica, "log", None)
            if log is not None:
                prefixes[node_id] = log.committed_prefix_uids()
        return prefixes

    def leader_id(self) -> Optional[int]:
        """Endpoint id of this group's current leader (Paxos family)."""
        # lint: ok(no-unordered-iteration) first match must be the lowest member endpoint id; insertion order is ascending
        for node_id, node in self.nodes.items():
            if getattr(node.replica, "is_leader", False) and not node.crashed:
                return node_id
        return None


class Cluster:
    """A fully wired simulated deployment ready to run."""

    def __init__(
        self,
        protocol: str,
        sim: Simulator,
        network: SimNetwork,
        topology: Topology,
        nodes: Dict[int, SimNode],
        clients: List[ClosedLoopClient],
        fault_schedule: Optional[FaultSchedule] = None,
        history_recorder=None,
        num_shards: int = 1,
        shard_instances: Optional[List[ShardReplicaHost]] = None,
        router: Optional[ShardRouter] = None,
    ) -> None:
        self.protocol = protocol
        self.sim = sim
        self.network = network
        self.topology = topology
        self.nodes = nodes
        self.clients = clients
        self.fault_schedule = fault_schedule
        self.history_recorder = history_recorder
        self.num_shards = num_shards
        #: Shard >= 1 replica instances, ordered shard-major then by host
        #: node id.  Empty for unsharded clusters (shard 0 lives on the
        #: SimNodes themselves).
        self.shard_instances: List[ShardReplicaHost] = shard_instances or []
        self.router = router
        self._started = False

    # ------------------------------------------------------------------ running
    def start(self) -> None:
        """Start replicas, clients and the fault schedule (idempotent)."""
        if self._started:
            return
        self._started = True
        # lint: ok(no-unordered-iteration) nodes is built iterating topology.node_ids (sorted); insertion order IS ascending node-id start order
        for node in self.nodes.values():
            node.start()
        for instance in self.shard_instances:
            instance.start()
        for client in self.clients:
            client.start()
        if self.fault_schedule is not None:
            self._arm_faults(self.fault_schedule)

    def run(self, duration: float) -> float:
        """Run the simulation until ``duration`` seconds of virtual time."""
        self.start()
        return self.sim.run(until=duration)

    def _arm_faults(self, schedule: FaultSchedule) -> None:
        for event in schedule:
            self.sim.schedule_at(event.at, self.apply_fault, event)

    def apply_fault(self, event) -> None:
        """Apply one :class:`~repro.cluster.faults.FaultEvent` right now.

        The single dispatch point for scripted faults; the scenario engine
        routes its static events through here too.
        """
        if event.kind is FaultKind.CRASH:
            self.nodes[event.node].crash()
        elif event.kind is FaultKind.RECOVER:
            self.nodes[event.node].recover()
        elif event.kind is FaultKind.SLUGGISH:
            self.nodes[event.node].set_sluggish(event.factor)
        elif event.kind is FaultKind.SEVER_LINK:
            self.network.faults.sever_link(event.node, event.peer)
        elif event.kind is FaultKind.HEAL_LINK:
            self.network.faults.heal_link(event.node, event.peer)
        elif event.kind is FaultKind.PARTITION:
            self.network.faults.partition(*event.groups)
        elif event.kind is FaultKind.HEAL_PARTITION:
            self.network.faults.heal_partition()

    # ------------------------------------------------------------------ queries
    @property
    def node_ids(self) -> Sequence[int]:
        return self.topology.node_ids

    def replicas(self) -> Dict[int, object]:
        # lint: ok(no-unordered-iteration) nodes insertion order is ascending node id (built from sorted topology.node_ids)
        return {node_id: node.replica for node_id, node in self.nodes.items()}

    def leader_id(self) -> Optional[int]:
        """The id of the node currently acting as leader (Paxos/PigPaxos).

        In a sharded cluster this is shard 0's leader -- the group hosted
        directly on the physical nodes; use :meth:`shard_views` (or
        :meth:`shard_leader_endpoint`) for the other groups.
        """
        # lint: ok(no-unordered-iteration) first match must be the lowest node id; insertion order is ascending node id
        for node_id, node in self.nodes.items():
            if getattr(node.replica, "is_leader", False) and not node.crashed:
                return node_id
        return None

    # ------------------------------------------------------------------ shards
    def shard_views(self) -> List[ShardGroupView]:
        """One checker-facing :class:`ShardGroupView` per consensus group."""
        views = [ShardGroupView(0, dict(self.nodes))]
        for shard in range(1, self.num_shards):
            members = {
                instance.endpoint_id: instance
                for instance in self.shard_instances
                if instance.shard == shard
            }
            views.append(ShardGroupView(shard, members))
        return views

    def shard_leader_endpoint(self, shard: int) -> Optional[int]:
        """The endpoint id of ``shard``'s current leader (Paxos family)."""
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"shard must be in [0, {self.num_shards}), got {shard}"
            )
        return self.shard_views()[shard].leader_id()

    def all_replica_hosts(self) -> List[object]:
        """Every replica-hosting endpoint, shard 0 (physical nodes) first.

        Order is deterministic: ascending node id, then shard instances
        shard-major by host node id.  Identical to ``nodes.values()`` for
        unsharded clusters.
        """
        # lint: ok(no-unordered-iteration) nodes insertion order is ascending node id (built from sorted topology.node_ids)
        hosts: List[object] = list(self.nodes.values())
        hosts.extend(self.shard_instances)
        return hosts

    def committed_prefixes(self) -> Dict[int, List[Optional[int]]]:
        """Gap-free committed command uids per replica (agreement checks)."""
        prefixes: Dict[int, List[Optional[int]]] = {}
        # lint: ok(no-unordered-iteration) nodes insertion order is ascending node id (built from sorted topology.node_ids)
        for node_id, node in self.nodes.items():
            log = getattr(node.replica, "log", None)
            if log is not None:
                prefixes[node_id] = log.committed_prefix_uids()
        return prefixes

    def logs_agree(self) -> bool:
        """True when every pair of replicas agrees on the common committed prefix."""
        from repro.checkers.invariants import check_prefix_agreement

        return not check_prefix_agreement(self)

    def total_completed_requests(self) -> int:
        return sum(client.stats.received for client in self.clients)

    def crash_node(self, node_id: int) -> None:
        self.nodes[node_id].crash()

    def recover_node(self, node_id: int) -> None:
        self.nodes[node_id].recover()


@dataclass
class ClusterBuilder:
    """Fluent builder for :class:`Cluster` instances.

    Example::

        cluster = (ClusterBuilder()
                   .protocol("pigpaxos")
                   .nodes(25)
                   .relay_groups(3)
                   .clients(100)
                   .seed(7)
                   .build())
        cluster.run(5.0)
    """

    _protocol: str = "pigpaxos"
    _num_nodes: int = 5
    _topology: Optional[Topology] = None
    _protocol_config: ConfigLike = None
    _cpu_model: NodeCPUModel = field(default_factory=NodeCPUModel)
    _seed: int = 0
    _num_clients: int = 10
    _workload: WorkloadSpec = field(default_factory=WorkloadSpec.paper_default)
    _fault_schedule: Optional[FaultSchedule] = None
    _client_start_time: float = 0.05
    _client_timeout: float = 2.0
    _num_relay_groups: Optional[int] = None
    _use_region_groups: bool = False
    _overlay_config: Optional[OverlayConfig] = None
    _drop_probability: float = 0.0
    _size_model: SizeModel = field(default_factory=SizeModel)
    _history_recorder: Optional[object] = None
    _num_shards: int = 1

    # ------------------------------------------------------------------ fluent setters
    def protocol(self, name: str) -> "ClusterBuilder":
        if name not in PROTOCOLS:
            raise ConfigurationError(f"unknown protocol {name!r}; expected one of {PROTOCOLS}")
        self._protocol = name
        return self

    def nodes(self, count: int) -> "ClusterBuilder":
        self._num_nodes = count
        return self

    def topology(self, topology: Topology) -> "ClusterBuilder":
        self._topology = topology
        return self

    def protocol_config(self, config: ConfigLike) -> "ClusterBuilder":
        """Protocol knobs, resolved (never mutated) by ``resolve_config`` at build time."""
        self._protocol_config = config
        return self

    def cpu_model(self, model: NodeCPUModel) -> "ClusterBuilder":
        self._cpu_model = model
        return self

    def seed(self, seed: int) -> "ClusterBuilder":
        self._seed = seed
        return self

    def clients(self, count: int, workload: Optional[WorkloadSpec] = None) -> "ClusterBuilder":
        self._num_clients = count
        if workload is not None:
            self._workload = workload
        return self

    def workload(self, spec: WorkloadSpec) -> "ClusterBuilder":
        self._workload = spec
        return self

    def faults(self, schedule: FaultSchedule) -> "ClusterBuilder":
        self._fault_schedule = schedule
        return self

    def relay_groups(self, count: int) -> "ClusterBuilder":
        self._num_relay_groups = count
        return self

    def region_relay_groups(self, enabled: bool = True) -> "ClusterBuilder":
        self._use_region_groups = enabled
        return self

    def overlay(self, config) -> "ClusterBuilder":
        """Choose the wide-cast fan-out overlay.

        Accepts an :class:`~repro.overlay.config.OverlayConfig`, a kind
        string (``"direct"``/``"relay"``/``"thrifty"``) or a mapping of
        OverlayConfig fields.  Takes precedence over
        ``ProtocolConfig.overlay``.  PigPaxos *is* the relay overlay and
        accepts no other kind.
        """
        self._overlay_config = OverlayConfig.coerce(config)
        return self

    def message_drop_probability(self, probability: float) -> "ClusterBuilder":
        self._drop_probability = probability
        return self

    def client_start_time(self, start_time: float) -> "ClusterBuilder":
        self._client_start_time = start_time
        return self

    def history_recorder(self, recorder) -> "ClusterBuilder":
        """Record every client operation into ``recorder`` (see repro.checkers)."""
        self._history_recorder = recorder
        return self

    def client_timeout(self, timeout: float) -> "ClusterBuilder":
        """Client request timeout before re-sending to a rotated target."""
        self._client_timeout = timeout
        return self

    def shards(self, count: int) -> "ClusterBuilder":
        """Split the keyspace across ``count`` independent consensus groups.

        Every physical node hosts one replica per group; group leaders are
        spread round-robin across the nodes and clients route each command
        by its key (see :mod:`repro.shard`).  ``1`` (the default) is the
        unsharded deployment, byte-identical to the historical behaviour.
        """
        if count < 1:
            raise ConfigurationError(f"shards must be >= 1, got {count}")
        self._num_shards = count
        return self

    # ------------------------------------------------------------------ build
    def build(self) -> Cluster:
        topology = self._topology or lan_topology(self._num_nodes)
        num_shards = self._num_shards
        config = resolve_config(
            self._protocol, self._protocol_config, overlay=self._overlay_config,
            relay_groups=self._num_relay_groups, use_region_groups=self._use_region_groups,
        )
        if num_shards > 1:
            self._validate_sharding(topology, config)
        sim = Simulator(seed=self._seed)
        faults = NetworkFaults(drop_probability=self._drop_probability)
        latency_override = None
        if num_shards > 1:
            # Faults and latency are properties of the physical fabric:
            # fold every shard endpoint onto its host node before link,
            # partition and delay decisions.
            faults.endpoint_key = physical_node
            latency_override = ShardAwareLatency(topology.latency)
        network = SimNetwork(
            sim,
            topology,
            size_model=self._size_model,
            faults=faults,
            latency_model=latency_override,
        )

        node_ids = list(topology.node_ids)
        leaders = round_robin_leaders(num_shards, node_ids) if num_shards > 1 else None
        shard0_leader = None if leaders is None else leaders[0]
        region_map = topology.region_map()
        zone_map = topology.zone_map()
        nodes: Dict[int, SimNode] = {}
        for node_id in node_ids:
            node = SimNode(
                node_id=node_id,
                sim=sim,
                network=network,
                cpu=self._cpu_model,
                all_nodes=topology.node_ids,
            )
            node.host(build_replica(self._protocol, config, region_map, zone_map, shard0_leader))
            nodes[node_id] = node

        shard_instances: List[ShardReplicaHost] = []
        router: Optional[ShardRouter] = None
        if num_shards > 1:
            groups: List[Sequence[int]] = [tuple(node_ids)]
            for shard in range(1, num_shards):
                members = tuple(shard_endpoint(shard, n) for n in node_ids)
                shard_regions = {
                    shard_endpoint(shard, n): region_map[n]
                    for n in node_ids
                    if n in region_map
                }
                shard_zones = {
                    shard_endpoint(shard, n): zone_map[n]
                    for n in node_ids
                    if n in zone_map
                }
                for node_id in node_ids:
                    instance = ShardReplicaHost(
                        host=nodes[node_id], shard=shard, all_nodes=members
                    )
                    replica = build_replica(
                        self._protocol, config, shard_regions, shard_zones, leaders[shard]
                    )
                    instance.host_replica(replica)
                    nodes[node_id].add_shard_sibling(instance)
                    shard_instances.append(instance)
                groups.append(members)
            router = ShardRouter(
                ShardMap(num_shards, self._workload.num_keys), groups, leaders
            )

        target_policy = "random" if self._protocol == "epaxos" else "leader"
        clients: List[ClosedLoopClient] = []
        for index in range(self._num_clients):
            client = ClosedLoopClient(
                client_id=CLIENT_ID_BASE + index,
                sim=sim,
                network=network,
                spec=self._workload,
                targets=list(topology.node_ids),
                target_policy=target_policy,
                request_timeout=self._client_timeout,
                start_time=self._client_start_time,
                recorder=self._history_recorder,
                router=router,
            )
            clients.append(client)

        return Cluster(
            protocol=self._protocol,
            sim=sim,
            network=network,
            topology=topology,
            nodes=nodes,
            clients=clients,
            fault_schedule=self._fault_schedule,
            history_recorder=self._history_recorder,
            num_shards=num_shards,
            shard_instances=shard_instances,
            router=router,
        )

    def _validate_sharding(self, topology: Topology, config: ProtocolConfig) -> None:
        """Reject builder settings that cannot host multiple shards.

        The compatibility contract for ``shards > 1``:

        * Key-range routing needs at least one key per shard.
        * Shard endpoint ids are ``shard * SHARD_ENDPOINT_STRIDE + node``,
          so node ids must sit below the stride.
        * Leader placement is per-group round-robin, so an explicit
          ``initial_leader`` override is contradictory and refused.
        * Relay overlays (PigPaxos and the relay/thrifty overlay configs)
          are *supported* -- each shard instance gets its own overlay with a
          shard-qualified region map -- but an explicitly requested
          ``relay_groups`` may not exceed ``num_nodes - 1``, since every
          group needs at least one follower.
        """
        node_ids = list(topology.node_ids)
        if self._num_shards > self._workload.num_keys:
            raise ConfigurationError(
                f"cannot split {self._workload.num_keys} keys across "
                f"{self._num_shards} shards; shards must be <= workload num_keys"
            )
        if min(node_ids) < 0 or max(node_ids) >= SHARD_ENDPOINT_STRIDE:
            raise ConfigurationError(
                f"sharding requires node ids in [0, {SHARD_ENDPOINT_STRIDE}); "
                f"got range [{min(node_ids)}, {max(node_ids)}]"
            )
        if config.initial_leader not in (None, 0):
            raise ConfigurationError(
                "initial_leader cannot be combined with shards > 1: leader "
                "placement is per-group round-robin across the node set"
            )
        # Only the *explicit* builder-level request is rejected here: a
        # config-level count (overlay num_groups, the num_relay_groups key)
        # may simply be the dataclass default, and the overlay
        # planner clamps it to the follower count exactly as it does on
        # unsharded clusters -- sharding must not be stricter than the
        # machinery it multiplies.
        relay_groups = self._num_relay_groups
        if relay_groups is not None and relay_groups > len(node_ids) - 1:
            raise ConfigurationError(
                f"relay_groups={relay_groups} needs at least one follower per "
                f"group, but a sharded group on {len(node_ids)} nodes has only "
                f"{len(node_ids) - 1} followers"
            )


def build_cluster(
    protocol: str = "pigpaxos",
    num_nodes: int = 5,
    num_clients: int = 10,
    seed: int = 0,
    relay_groups: Optional[int] = None,
    workload: Optional[WorkloadSpec] = None,
    topology: Optional[Topology] = None,
    protocol_config: ConfigLike = None,
    cpu_model: Optional[NodeCPUModel] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    use_region_groups: bool = False,
    overlay=None,
    shards: int = 1,
) -> Cluster:
    """One-call convenience wrapper around :class:`ClusterBuilder`."""
    builder = ClusterBuilder().protocol(protocol).nodes(num_nodes).clients(num_clients).seed(seed)
    if shards != 1:
        builder.shards(shards)
    if relay_groups is not None:
        builder.relay_groups(relay_groups)
    if overlay is not None:
        builder.overlay(overlay)
    if workload is not None:
        builder.workload(workload)
    if topology is not None:
        builder.topology(topology)
    if protocol_config is not None:
        builder.protocol_config(protocol_config)
    if cpu_model is not None:
        builder.cpu_model(cpu_model)
    if fault_schedule is not None:
        builder.faults(fault_schedule)
    if use_region_groups:
        builder.region_relay_groups(True)
    return builder.build()
