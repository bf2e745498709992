"""Cluster builder: wires simulator, network, nodes, replicas and clients.

:func:`build_cluster` assembles a fully configured simulated deployment of
one of the three protocols plus its closed-loop clients.  The returned
:class:`Cluster` is what the scenario runner (and through it examples,
tests and the benchmark harness) runs; timed faults are a scenario's
``events``, fired by the runner onto the cluster's own methods.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.checkers.history import History, HistoryRecorder
from repro.cluster.cpu import NodeCPUModel
from repro.cluster.node import ShardReplicaHost, SimNode
from repro.cluster.topologies import lan_topology
from repro.errors import ConfigurationError
from repro.net.faults import NetworkFaults
from repro.net.network import SimNetwork
from repro.net.topology import Topology
from repro.protocol.config import ProtocolConfig
from repro.protocol.resolver import ConfigLike, build_replica, resolve_config
from repro.shard.addressing import SHARD_ENDPOINT_STRIDE, shard_endpoint
from repro.shard.router import ShardRouter, round_robin_leaders
from repro.sim.engine import Simulator
from repro.workload.client import ClosedLoopClient
from repro.workload.spec import WorkloadSpec

#: Client endpoint ids start here so they never collide with node ids.
CLIENT_ID_BASE = 1000

#: Virtual time at which every client sends its first request (replicas
#: start at 0).
CLIENT_START_TIME = 0.05

#: The one CPU cost model every simulated node runs (immutable, so shared).
NODE_CPU = NodeCPUModel()


class ShardGroupView:
    """One consensus group, viewed as a mini-cluster for the checkers.

    Exposes exactly the surface the invariant checkers consume from
    :class:`Cluster`: a ``nodes`` mapping (insertion-ordered by ascending
    member endpoint id) whose values carry ``.replica`` and ``.crashed``,
    plus :meth:`committed_prefixes`.  Each shard's group is checked in
    isolation -- cross-shard consistency is the per-key linearizability
    checker's job, which needs no adapter because keys never span shards.
    """

    def __init__(self, shard: int, nodes: Dict[int, ShardReplicaHost]) -> None:
        self.shard = shard
        self.nodes = nodes

    def committed_prefixes(self) -> Dict[int, List[Optional[int]]]:
        """Gap-free committed command uids per log-bearing replica."""
        prefixes: Dict[int, List[Optional[int]]] = {}
        # lint: ok(no-unordered-iteration) nodes insertion order is ascending endpoint id (built from sorted topology.node_ids)
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
    """A fully wired simulated deployment ready to run.

    ``nodes`` are the machines; each hosts one replica per consensus group.
    The group table (:meth:`shard_views`) is derived from them once, and
    every replica-level query reads it: an unsharded cluster is its
    one-group case, whose endpoint ids are the node ids.  Every client
    records into one ``recorder``, read back through :meth:`history`.
    """

    def __init__(
        self,
        protocol: str,
        sim: Simulator,
        network: SimNetwork,
        topology: Topology,
        nodes: Dict[int, SimNode],
        clients: List[ClosedLoopClient],
        recorder: HistoryRecorder,
    ) -> None:
        self.protocol = protocol
        self.sim = sim
        self.network = network
        self.topology = topology
        self.nodes = nodes
        self.clients = clients
        self._recorder = recorder
        # lint: ok(no-unordered-iteration) nodes insertion order is ascending node id (built from sorted topology.node_ids)
        machines = list(nodes.values())
        self.num_shards = len(machines[0].hosts)
        self._groups = [
            ShardGroupView(
                shard, {node.hosts[shard].endpoint_id: node.hosts[shard] for node in machines}
            )
            for shard in range(self.num_shards)
        ]
        self._started = False

    # ------------------------------------------------------------------ running
    def start(self) -> None:
        """Start replicas and clients (idempotent)."""
        if self._started:
            return
        self._started = True
        for host in self.all_replica_hosts():
            host.replica.start()
        for client in self.clients:
            client.start()

    def run(self, duration: float) -> float:
        """Run the simulation until ``duration`` seconds of virtual time."""
        self.start()
        return self.sim.run(until=duration)

    # ------------------------------------------------------------------ queries
    @property
    def node_ids(self) -> Sequence[int]:
        return self.topology.node_ids

    def leader_id(self) -> Optional[int]:
        """The id of the node currently acting as leader (Paxos/PigPaxos).

        In a sharded cluster this is shard 0's leader; use
        :meth:`shard_views` (or :meth:`shard_leader_endpoint`) for the other
        groups.
        """
        return self._groups[0].leader_id()

    # ------------------------------------------------------------------ shards
    def shard_views(self) -> List[ShardGroupView]:
        """One checker-facing :class:`ShardGroupView` per consensus group."""
        return list(self._groups)

    def shard_leader_endpoint(self, shard: int) -> Optional[int]:
        """The endpoint id of ``shard``'s current leader (Paxos family)."""
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"shard must be in [0, {self.num_shards}), got {shard}"
            )
        return self._groups[shard].leader_id()

    def all_replica_hosts(self) -> List[ShardReplicaHost]:
        """Every replica host, shard-major, then by ascending node id."""
        # lint: ok(no-unordered-iteration) each group's insertion order is ascending node id
        return [host for group in self._groups for host in group.nodes.values()]

    def committed_prefixes(self) -> Dict[int, List[Optional[int]]]:
        """Gap-free committed command uids per shard-0 replica (agreement checks)."""
        return self._groups[0].committed_prefixes()

    def logs_agree(self) -> bool:
        """True when every pair of replicas agrees on the common committed prefix."""
        from repro.checkers.invariants import check_prefix_agreement

        return not check_prefix_agreement(self)

    def total_completed_requests(self) -> int:
        return sum(len(client.stats.completions) for client in self.clients)

    def history(self) -> History:
        """Every client operation so far, for the linearizability checker."""
        return self._recorder.history()

    def crash_node(self, node_id: int) -> None:
        self.nodes[node_id].crash()

    def recover_node(self, node_id: int) -> None:
        self.nodes[node_id].recover()


def build_cluster(
    protocol: str = "pigpaxos",
    num_nodes: int = 5,
    num_clients: int = 10,
    seed: int = 0,
    workload: Optional[WorkloadSpec] = None,
    protocol_config: ConfigLike = None,
    relay_groups: Optional[int] = None,
    use_region_groups: bool = False,
    shards: int = 1,
    client_timeout: float = 2.0,
    drop_probability: float = 0.0,
    topology: Optional[Topology] = None,
) -> Cluster:
    """Wire one simulated deployment; the only place a cluster is built.

    The parameters are what a :class:`~repro.scenarios.spec.Scenario` can
    express (``ScenarioRunner.build`` is one call to this function) plus an
    explicit ``topology``, which replaces the ``num_nodes``-node LAN.  Every
    client operation is recorded into the cluster's own recorder
    (:meth:`Cluster.history`).  ``protocol_config`` is resolved, never
    mutated, by :func:`~repro.protocol.resolver.resolve_config`; an overlay
    is named there (``{"overlay": ...}``) and nowhere else.  Every node hosts one
    replica per consensus group and clients route each command by its key
    (see :mod:`repro.shard`); ``shards > 1`` spreads the groups' leaders
    round-robin.

    Example::

        cluster = build_cluster("pigpaxos", num_nodes=25, relay_groups=3,
                                num_clients=100, seed=7)
        cluster.run(5.0)
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if not client_timeout > 0:
        raise ConfigurationError(f"client_timeout must be > 0, got {client_timeout}")
    topology = topology or lan_topology(num_nodes)
    node_ids = list(topology.node_ids)
    # The fabric folds every endpoint id onto its machine modulo the
    # stride, so every node id -- sharded or not -- must sit below it.
    if min(node_ids) < 0 or max(node_ids) >= SHARD_ENDPOINT_STRIDE:
        raise ConfigurationError(
            f"node ids must be in [0, {SHARD_ENDPOINT_STRIDE}); "
            f"got range [{min(node_ids)}, {max(node_ids)}]"
        )
    workload = workload or WorkloadSpec.paper_default()
    config = resolve_config(
        protocol, protocol_config,
        relay_groups=relay_groups, use_region_groups=use_region_groups,
    )
    if shards > 1:
        _validate_sharding(node_ids, config, workload, shards, relay_groups)
    sim = Simulator(seed=seed)
    network = SimNetwork(sim, topology, faults=NetworkFaults(drop_probability=drop_probability))

    leaders = round_robin_leaders(shards, node_ids)
    # An unsharded cluster's replicas keep the configured initial leader.
    replica_leaders = leaders if shards > 1 else [None]
    region_map = topology.region_map()
    zone_map = topology.zone_map()
    nodes = {node_id: SimNode(node_id, sim, network, cpu=NODE_CPU) for node_id in node_ids}
    groups: List[Sequence[int]] = []
    for shard in range(shards):
        members = tuple(shard_endpoint(shard, n) for n in node_ids)
        regions = {shard_endpoint(shard, n): region_map[n] for n in node_ids if n in region_map}
        zones = {shard_endpoint(shard, n): zone_map[n] for n in node_ids if n in zone_map}
        for node_id in node_ids:
            replica = build_replica(protocol, config, regions, zones, replica_leaders[shard])
            nodes[node_id].host(replica, members, shard)
        groups.append(members)
    router = ShardRouter([workload.key(i) for i in range(workload.num_keys)], groups, leaders)
    recorder = HistoryRecorder()

    target_policy = "random" if protocol == "epaxos" else "leader"
    clients: List[ClosedLoopClient] = []
    for index in range(num_clients):
        client = ClosedLoopClient(
            client_id=CLIENT_ID_BASE + index,
            sim=sim,
            network=network,
            spec=workload,
            router=router,
            recorder=recorder,
            target_policy=target_policy,
            request_timeout=client_timeout,
            start_time=CLIENT_START_TIME,
        )
        clients.append(client)

    return Cluster(
        protocol=protocol,
        sim=sim,
        network=network,
        topology=topology,
        nodes=nodes,
        clients=clients,
        recorder=recorder,
    )


def _validate_sharding(
    node_ids: List[int],
    config: ProtocolConfig,
    workload: WorkloadSpec,
    shards: int,
    relay_groups: Optional[int],
) -> None:
    """Reject settings that cannot host multiple shards.

    The compatibility contract for ``shards > 1``:

    * Key-range routing needs at least one key per shard.
    * Leader placement is per-group round-robin, so an explicit
      ``initial_leader`` override is contradictory and refused.
    * Relay overlays (PigPaxos and the relay/thrifty overlay configs)
      are *supported* -- each shard instance gets its own overlay with a
      shard-qualified region map -- but an explicitly requested
      ``relay_groups`` may not exceed ``num_nodes - 1``, since every
      group needs at least one follower.
    """
    if shards > workload.num_keys:
        raise ConfigurationError(
            f"cannot split {workload.num_keys} keys across "
            f"{shards} shards; shards must be <= workload num_keys"
        )
    if config.initial_leader not in (None, 0):
        raise ConfigurationError(
            "initial_leader cannot be combined with shards > 1: leader "
            "placement is per-group round-robin across the node set"
        )
    # Only the *explicit* relay_groups request is rejected here: a
    # config-level count (overlay num_groups, the num_relay_groups key)
    # may simply be the dataclass default, and the overlay
    # planner clamps it to the follower count exactly as it does on
    # unsharded clusters -- sharding must not be stricter than the
    # machinery it multiplies.
    if relay_groups is not None and relay_groups > len(node_ids) - 1:
        raise ConfigurationError(
            f"relay_groups={relay_groups} needs at least one follower per "
            f"group, but a sharded group on {len(node_ids)} nodes has only "
            f"{len(node_ids) - 1} followers"
        )
