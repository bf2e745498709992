"""Unit tests for the node CPU model, SimNode and its replica hosts, topologies and builder."""

from __future__ import annotations

import pytest

from helpers import SizedProbe, crash_owned_entries
from repro.checkers import run_log_checks
from repro.cluster.builder import build_cluster
from repro.cluster.cpu import NodeCPUModel
from repro.cluster.node import SimNode
from repro.cluster.topologies import lan_topology, paper_wan_regions, wan_topology
from repro.epaxos.replica import EPaxosReplica
from repro.errors import ConfigurationError
from repro.net.latency import ConstantLatency, WANMatrixLatency
from repro.net.network import SimNetwork
from repro.net.topology import Topology
from repro.overlay import RelayFanout
from repro.overlay.messages import RelayAggregate, RelayRequest
from repro.paxos.replica import MultiPaxosReplica
from repro.protocol.base import Replica
from repro.protocol.messages import ClientRequest
from repro.shard import SHARD_ENDPOINT_STRIDE, shard_endpoint
from repro.sim.engine import Simulator
from repro.statemachine.command import Command, OpType


class _EchoReplica(Replica):
    """Replica that records messages and echoes each original back once."""

    protocol_name = "echo"

    def __init__(self) -> None:
        super().__init__()
        self.received = []

    def _handlers(self):
        return {}

    def _on_unknown_message(self, src, message):  # the catch-all: every type lands here
        if isinstance(message, tuple) and message and message[0] == "echo":
            self.received.append((src, message[1]))
            return
        self.received.append((src, message))
        self.send(src, ("echo", message))


class TestNodeCPUModel:
    @staticmethod
    def _receive_cost(cpu, message):
        """CPU seconds one node books for receiving ``message``."""
        sim = Simulator(seed=0)
        network = SimNetwork(sim, lan_topology(1))
        node = SimNode(0, sim, network, cpu=cpu)
        host = node.host(_EchoReplica(), [0], 0)
        host.arrive(1, message, network.size_model.size_of(message))
        return node.busy_time_total

    def test_costs_scale_with_size(self):
        cpu = NodeCPUModel(recv_per_message=1e-5, per_byte=1e-8)
        assert self._receive_cost(cpu, SizedProbe(1000 - 64)) == pytest.approx(2e-5)
        assert self._receive_cost(NodeCPUModel(recv_per_message=1e-5, per_byte=0.0), "x") == 1e-5

    def test_client_request_surcharge(self):
        cpu = NodeCPUModel(recv_per_message=1e-5, per_byte=0.0, client_request_extra=5e-5)
        request = ClientRequest(Command(OpType.GET, "k"))
        assert self._receive_cost(cpu, request) == pytest.approx(6e-5)

    def test_scaled_model(self):
        cpu = NodeCPUModel().scaled(2.0)
        assert cpu.recv_per_message == pytest.approx(NodeCPUModel().recv_per_message * 2)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeCPUModel(recv_per_message=-1.0)
        with pytest.raises(ConfigurationError):
            NodeCPUModel(per_byte=float("nan"))

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeCPUModel().scaled(0.0)
        with pytest.raises(ConfigurationError):
            NodeCPUModel().scaled(float("nan"))


class TestSimNode:
    def _setup(self, cpu=None):
        sim = Simulator(seed=0)
        topology = lan_topology(2)
        network = SimNetwork(sim, topology)
        nodes = {}
        for node_id in (0, 1):
            node = SimNode(node_id, sim, network, cpu=cpu or NodeCPUModel())
            node.host(_EchoReplica(), [0, 1], 0)
            nodes[node_id] = node
        return sim, network, nodes

    def test_message_roundtrip_through_nodes(self):
        sim, network, nodes = self._setup()
        nodes[0].replica.send(1, "ping")
        sim.run()
        assert nodes[1].replica.received == [(0, "ping")]
        assert nodes[0].replica.received == [(1, "ping")]

    def test_cpu_reservation_serializes_work(self):
        cpu = NodeCPUModel(recv_per_message=0.01, send_per_message=0.01, per_byte=0.0)
        sim, network, nodes = self._setup(cpu=cpu)
        for _ in range(5):
            nodes[0].replica.send(1, "x")
        sim.run()
        # 5 sends at 10ms each serialize on node 0's CPU before the last departs.
        assert nodes[0].busy_time_total >= 0.05 - 1e-9
        assert nodes[1].busy_time_total > 0

    def test_crashed_node_ignores_traffic_and_timers(self):
        sim, network, nodes = self._setup()
        nodes[1].crash()
        nodes[0].replica.send(1, "lost")
        sim.run()
        assert nodes[1].replica.received == []
        assert nodes[1].crashed
        assert sim.metrics.counter("net.messages_undeliverable").value == 1
        assert sim.metrics.counter("net.messages_delivered").value == 0

    def test_recovered_node_processes_again(self):
        sim, network, nodes = self._setup()
        nodes[1].crash()
        nodes[1].recover()
        nodes[0].replica.send(1, "hello")
        sim.run()
        assert nodes[1].replica.received == [(0, "hello")]

    def _slow_link_setup(self, cpu=None):
        """Two nodes 1 ms apart, so faults can land while a message is in flight."""
        sim = Simulator(seed=0)
        network = SimNetwork(sim, Topology(node_ids=[0, 1], latency=ConstantLatency(0.001)))
        nodes = {}
        for node_id in (0, 1):
            nodes[node_id] = SimNode(node_id, sim, network, cpu=cpu)
            nodes[node_id].host(_EchoReplica(), [0, 1], 0)
        return sim, nodes

    def test_crash_between_send_and_arrival_is_undeliverable(self):
        # Reachability is judged when the message lands, not when it left.
        sim, nodes = self._slow_link_setup()
        nodes[0].replica.send(1, "in flight")
        sim.schedule(0.0005, nodes[1].crash)
        sim.run()
        assert nodes[1].replica.received == []
        assert sim.metrics.counter("net.messages_sent").value == 1
        assert sim.metrics.counter("net.messages_undeliverable").value == 1
        assert sim.metrics.counter("net.messages_delivered").value == 0

    def test_crashed_sender_emits_nothing(self):
        # The paper's crash model: nothing leaves a crashed node, including a
        # send it had already charged to its CPU.  Node 0's send departs at
        # 10 ms; node 0 crashes at 5 ms.
        cpu = NodeCPUModel(recv_per_message=0.0, send_per_message=0.01, per_byte=0.0)
        sim, network, nodes = self._setup(cpu=cpu)
        nodes[0].replica.send(1, "ping")
        sim.schedule(0.005, nodes[0].crash)
        sim.run()
        assert nodes[1].replica.received == []
        assert sim.metrics.counter("net.messages_sent").value == 0
        # The send never left, so it is not counted as the machine's either.
        assert sim.metrics.counter("node.0.messages_out").value == 0
        assert sim.metrics.counter("node.0.bytes_out").value == 0

    def test_crash_gives_back_the_cpu_time_of_dropped_work(self):
        # Ten 10 ms sends reserve 0.1 s of node 0's CPU; it crashes at 5 ms,
        # so it was busy for those 5 ms only, and idle from its recovery.
        cpu = NodeCPUModel(recv_per_message=0.0, send_per_message=0.01, per_byte=0.0)
        sim, network, nodes = self._setup(cpu=cpu)
        for _ in range(10):
            nodes[0].replica.send(1, "ping")
        assert nodes[0].busy_time_total == pytest.approx(0.1)
        sim.schedule(0.005, nodes[0].crash)
        sim.schedule(0.006, nodes[0].recover)
        sim.run()
        assert nodes[0].busy_time_total == pytest.approx(0.005)
        assert nodes[0].busy_until == pytest.approx(0.006)

    def test_handler_queued_before_crash_never_runs(self):
        # The paper's crash model: a crash loses the work the node had
        # accepted but not yet done, whenever it recovers.  The ping lands on
        # node 1 at 1 ms and its handler is queued behind 10 ms of receive
        # cost; node 1 crashes at 3 ms and recovers at 6 ms, before 11 ms.
        cpu = NodeCPUModel(recv_per_message=0.01, send_per_message=0.0, per_byte=0.0)
        sim, nodes = self._slow_link_setup(cpu=cpu)
        nodes[0].replica.send(1, "ping")
        sim.schedule(0.003, nodes[1].crash)
        sim.schedule(0.006, nodes[1].recover)
        sim.run()
        assert nodes[1].replica.received == []

    def test_timer_set_before_crash_never_fires_after_recovery(self):
        # The paper's crash model: a replica's timers are volatile state.
        # Node 1 arms a 10 ms timer, crashes at 3 ms and recovers at 6 ms.
        sim, nodes = self._slow_link_setup()
        fired = []
        timer = nodes[1].hosts[0].schedule(0.01, fired.append, "timeout")
        sim.schedule(0.003, nodes[1].crash)
        sim.schedule(0.006, nodes[1].recover)
        sim.run()
        assert fired == []
        assert timer.cancelled

    def test_recovery_between_send_and_arrival_is_delivered(self):
        sim, nodes = self._slow_link_setup()
        nodes[1].crash()
        nodes[0].replica.send(1, "in flight")
        sim.schedule(0.0005, nodes[1].recover)
        sim.run()
        assert nodes[1].replica.received == [(0, "in flight")]
        assert sim.metrics.counter("net.messages_undeliverable").value == 0

    def test_shard_host_reserves_exactly_like_its_node(self):
        # One charged send/receive body serves every shard: the same traffic
        # must book the same CPU whether it runs as shard 0 (the node ids
        # themselves) or as shard 1 co-hosted on the same machines.
        def run(shard: int):
            sim = Simulator(seed=3)
            network = SimNetwork(sim, lan_topology(2))
            machines = {n: SimNode(n, sim, network) for n in (0, 1)}
            machines[1].set_sluggish(2.5)
            members = [shard_endpoint(shard, n) for n in (0, 1)]
            hosts = {n: machines[n].host(_EchoReplica(), members, shard) for n in (0, 1)}
            peer = members[1]
            request = ClientRequest(Command(OpType.PUT, "k", payload_size=300))
            for index, message in enumerate([SizedProbe(0), request, SizedProbe(1500), "bare"]):
                sim.schedule(index * 1e-6, hosts[0].send, peer, message)
            sim.run()
            assert len(hosts[1].replica.received) == 4
            return [
                (machines[n].busy_until, machines[n].busy_time_total) for n in (0, 1)
            ], sim.metrics.counters()["node.1.bytes_in"]

        assert run(shard=1) == run(shard=0)

    def test_sluggish_factor_inflates_costs(self):
        cpu = NodeCPUModel(recv_per_message=0.001, send_per_message=0.001, per_byte=0.0)
        sim, network, nodes = self._setup(cpu=cpu)
        nodes[1].set_sluggish(10.0)
        nodes[0].replica.send(1, "x")
        sim.run()
        assert nodes[1].busy_time_total >= 0.01

    def test_sluggish_factor_must_be_positive(self):
        sim, network, nodes = self._setup()
        with pytest.raises(ValueError):
            nodes[0].set_sluggish(0)
        with pytest.raises(ValueError):
            nodes[0].set_sluggish(float("nan"))

    def test_charges_accumulate_busy_time(self):
        sim, network, nodes = self._setup()
        before = nodes[0].busy_time_total
        nodes[0].charge_execution(10)
        nodes[0].charge_graph_work(100)
        nodes[0].charge_overhead(2)
        assert nodes[0].busy_time_total > before


class _RecordingReplica(Replica):
    """Records every message its registered handler or its catch-all runs for."""

    protocol_name = "record"

    def __init__(self) -> None:
        super().__init__()
        self.handled = []

    def _handlers(self):
        return {str: self._on_text}

    def _on_text(self, src, message):
        self.handled.append(message)

    def _on_unknown_message(self, src, message):
        self.handled.append(message)


class TestDispatch:
    """A delivered message is one probe of the hosted replica's handler table."""

    @staticmethod
    def _node(replica_class, overlay=None, shard=0):
        sim = Simulator(seed=0)
        network = SimNetwork(sim, lan_topology(3))
        machine = SimNode(0, sim, network)
        members = [shard_endpoint(shard, n) for n in (0, 1, 2)]
        host = machine.host(replica_class(overlay=overlay), members, shard)
        return sim, machine, host

    @staticmethod
    def _deliver(host, message):
        host.arrive(1, message, 64)

    @pytest.mark.parametrize("shard", [0, 1], ids=["shard-0", "shard-1"])
    @pytest.mark.parametrize("replica_class", [MultiPaxosReplica, EPaxosReplica])
    def test_unregistered_type_counts_unknown_message(self, replica_class, shard):
        sim, machine, host = self._node(replica_class, shard=shard)
        self._deliver(host, "not a wire type")
        # A relay wire type is just as unknown to a replica without the relay overlay.
        self._deliver(host, RelayAggregate(agg_id=1, responses=()))
        sim.run()
        counters = sim.metrics.counters()
        assert counters[f"{replica_class.protocol_name}.unknown_message"] == 2
        assert counters["node.0.messages_in"] == 2

    @pytest.mark.parametrize("shard", [0, 1], ids=["shard-0", "shard-1"])
    def test_crashed_host_handles_nothing(self, shard):
        # The crash lands after the message was accepted and charged but
        # before its handler ran: the queued dispatch must drop it.
        sim, machine, host = self._node(MultiPaxosReplica, shard=shard)
        self._deliver(host, "not a wire type")
        machine.crash()
        sim.run()
        counters = sim.metrics.counters()
        assert counters["node.0.messages_in"] == 1
        assert "paxos.unknown_message" not in counters

    @pytest.mark.parametrize("replica_class", [MultiPaxosReplica, EPaxosReplica])
    def test_relay_wire_types_reach_the_overlay(self, replica_class):
        overlay = RelayFanout(num_groups=1)
        sim, machine, host = self._node(replica_class, overlay=overlay)
        assert host.replica.handlers[RelayRequest] == overlay._on_relay_request
        # An aggregate for a round nobody here opened: the overlay (not the
        # replica's unknown-message path) sees it and drops it as late.
        self._deliver(host, RelayAggregate(agg_id=1, responses=()))
        sim.run()
        counters = sim.metrics.counters()
        protocol = replica_class.protocol_name
        assert counters[f"{protocol}.late_aggregates_dropped"] == 1
        assert f"{protocol}.unknown_message" not in counters

    @pytest.mark.parametrize("shards", [1, 2], ids=["unsharded", "shards-0-and-1"])
    def test_handler_queued_at_crash_never_runs(self, shards):
        # Dispatch happens at arrival, so the queued entry is the replica's
        # handler itself.  The crash drops it from the heap, for a
        # registered type and the catch-all alike, with the machine's
        # queued sends and replica timers, on every hosted shard; nothing of
        # it runs after a recovery, and work the machine does not own stays.
        sim = Simulator(seed=0)
        network = SimNetwork(sim, lan_topology(3))
        machine = SimNode(0, sim, network)
        hosts = [
            machine.host(_RecordingReplica(), [shard_endpoint(s, n) for n in (0, 1, 2)], s)
            for s in range(shards)
        ]
        fired = []
        timers = []
        for host in hosts:
            host.arrive(1, "registered", 64)
            host.arrive(1, 42, 64)
            host.send(1, "outbound")
            timers.append(host.schedule(0.001, fired.append, host.shard))
        sim.schedule(0.002, fired.append, "bystander")
        assert len(crash_owned_entries(machine, sim._heap)) == 4 * shards
        machine.crash()
        assert crash_owned_entries(machine, sim._heap) == []
        assert all(timer.cancelled for timer in timers)
        assert sim.pending_events == 1
        machine.recover()
        sim.run()
        assert [host.replica.handled for host in hosts] == [[]] * shards
        assert fired == ["bystander"]
        counters = sim.metrics.counters()
        assert counters["node.0.messages_in"] == 2 * shards
        assert counters["node.0.messages_out"] == 0
        assert counters["net.messages_sent"] == 0


class TestReplicaCrash:
    """What a crash takes from a replica: every timer it had armed."""

    def test_no_liveness_timer_survives_a_recovery(self):
        # A Paxos replica runs one _check_leader_liveness chain.  The crash
        # cancels the chain's pending timer, and on_recover starts a new one:
        # after the recovery there must still be exactly one.
        cluster = build_cluster("paxos", num_nodes=3, seed=1)
        sim = cluster.sim
        node = cluster.nodes[1]
        sim.schedule(0.30, node.crash)
        sim.schedule(0.32, node.recover)
        cluster.run(3.0)
        liveness = [
            entry for entry in sim._heap
            if entry[3] is None and not entry[2].cancelled
            and entry[2].callback == node.replica._check_leader_liveness
        ]
        assert len(liveness) == 1

    def test_follower_crashed_with_a_fill_pending_fills_again(self):
        # The crash cancels the follower's pending _request_fill, so its
        # pending flag must go with it.  Severing 0<->2 leaves node 2 with a
        # gap; it crashes the moment it arms the fill and is back 150 ms
        # later, and must then catch up with the leader.
        cluster = build_cluster("paxos", num_nodes=3, num_clients=2, seed=1)
        sim = cluster.sim
        faults = cluster.network.faults
        cluster.start()
        sim.schedule(0.2, faults.sever_link, 0, 2)
        sim.schedule(0.3, faults.heal_link, 0, 2)
        sim.run(until=0.2)
        follower = cluster.nodes[2]
        while not follower.replica._fill_pending:
            sim.run(until=1.0, max_events=1)
        assert sim.now < 1.0
        follower.crash()
        sim.schedule(0.15, follower.recover)
        sim.run(until=3.0)
        leader = cluster.nodes[0].replica
        assert leader.is_leader
        assert follower.replica.commit_upto >= leader.commit_upto - 50
        assert run_log_checks(cluster) == []


class TestTopologies:
    def test_lan_topology_size(self):
        topology = lan_topology(25)
        assert topology.size == 25
        assert topology.regions == []

    def test_lan_requires_positive_nodes(self):
        with pytest.raises(ConfigurationError):
            lan_topology(0)

    def test_paper_wan_regions_round_robin(self):
        regions = paper_wan_regions(15)
        assert sorted(regions) == ["california", "oregon", "virginia"]
        assert all(len(nodes) == 5 for nodes in regions.values())

    def test_wan_topology_builds_regions_and_matrix(self):
        topology = wan_topology(num_nodes=15)
        assert topology.size == 15
        assert isinstance(topology.latency, WANMatrixLatency)
        assert len(topology.regions) == 3
        assert topology.region_of(0) is not None

    def test_wan_topology_explicit_regions(self):
        topology = wan_topology(region_nodes={"virginia": [0, 1], "oregon": [2]})
        assert topology.nodes_in_region("virginia") == [0, 1]

    def test_wan_topology_requires_input(self):
        with pytest.raises(ConfigurationError):
            wan_topology()


class TestBuilder:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            build_cluster(protocol="raft")

    def test_builder_wires_nodes_clients_and_replicas(self):
        cluster = build_cluster("pigpaxos", num_nodes=5, relay_groups=2, num_clients=3, seed=11)
        assert len(cluster.nodes) == 5
        assert len(cluster.clients) == 3
        assert cluster.protocol == "pigpaxos"
        replica = cluster.nodes[0].replica
        assert replica.config.overlay.num_groups == 2

    def test_epaxos_clients_use_random_targets(self):
        cluster = build_cluster(protocol="epaxos", num_nodes=3, num_clients=2, seed=1)
        assert all(client._target_policy == "random" for client in cluster.clients)

    def test_paxos_clients_target_leader(self):
        cluster = build_cluster(protocol="paxos", num_nodes=3, num_clients=2, seed=1)
        assert all(client._target_policy == "leader" for client in cluster.clients)

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("bad_id", [-1, SHARD_ENDPOINT_STRIDE])
    def test_node_ids_must_sit_below_the_stride(self, shards, bad_id):
        # The fabric folds every endpoint onto its machine modulo the stride,
        # so an out-of-range id would silently alias another machine.
        topology = Topology(node_ids=[0, 1, bad_id])
        with pytest.raises(ConfigurationError, match="node ids must be in"):
            build_cluster("paxos", topology=topology, shards=shards, num_clients=1)

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan")])
    def test_client_timeout_must_be_positive(self, timeout):
        # A zero timeout re-fires at the same virtual time forever; a
        # negative or NaN one fails inside the run.  Both are caught at build.
        with pytest.raises(ConfigurationError, match="client_timeout"):
            build_cluster("paxos", num_nodes=3, num_clients=1, client_timeout=timeout)

    def test_unsharded_cluster_is_the_one_group_case(self):
        cluster = build_cluster(protocol="paxos", num_nodes=5, num_clients=3, seed=4)
        # Client side: one group of the node ids, hinted at the first node.
        for client in cluster.clients:
            assert client._groups == (tuple(cluster.node_ids),)
            assert client._leader_hints == [cluster.node_ids[0]]
        cluster.run(0.5)
        views = cluster.shard_views()
        assert len(views) == 1 and views[0].shard == 0
        assert list(views[0].nodes) == list(cluster.nodes) == [0, 1, 2, 3, 4]
        assert run_log_checks(cluster) == run_log_checks(views[0])
        assert cluster.committed_prefixes() == views[0].committed_prefixes()
        assert any(cluster.committed_prefixes().values())
        assert cluster.leader_id() == cluster.shard_leader_endpoint(0) is not None
        hosts = cluster.all_replica_hosts()
        assert [host.endpoint_id for host in hosts] == list(cluster.nodes)
        assert [host.replica for host in hosts] == [node.replica for node in cluster.nodes.values()]
        # Every operation is counted for the one group and recorded.
        counters = cluster.sim.metrics.counters()
        assert counters["shard.0.requests"] == len(cluster.history()) > 0
        assert counters["shard.0.completions"] == cluster.total_completed_requests() > 0

    def test_cluster_run_is_repeatable_for_same_seed(self):
        first = build_cluster(protocol="paxos", num_nodes=5, num_clients=5, seed=9)
        first.run(0.3)
        second = build_cluster(protocol="paxos", num_nodes=5, num_clients=5, seed=9)
        second.run(0.3)
        assert first.total_completed_requests() == second.total_completed_requests()


class TestSessionWindowWiring:
    def test_session_window_reaches_both_protocols(self):
        from repro.protocol.config import ProtocolConfig

        config = ProtocolConfig(session_window=4)
        paxos = build_cluster(protocol="paxos", num_nodes=3, num_clients=1, protocol_config=config)
        assert paxos.nodes[0].replica.store.window == 4
        epaxos = build_cluster(protocol="epaxos", num_nodes=3, num_clients=1, protocol_config=config)
        assert epaxos.nodes[0].replica.store.window == 4

    def test_epaxos_without_config_uses_default_window(self):
        from repro.statemachine.kvstore import DEFAULT_SESSION_WINDOW

        cluster = build_cluster(protocol="epaxos", num_nodes=3, num_clients=1)
        assert cluster.nodes[0].replica.store.window == DEFAULT_SESSION_WINDOW
