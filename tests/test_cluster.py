"""Unit tests for the node CPU model, SimNode, topologies, faults and builder."""

from __future__ import annotations

import pytest

from repro.cluster.builder import ClusterBuilder, build_cluster
from repro.cluster.cpu import NodeCPUModel
from repro.cluster.faults import FaultKind, FaultSchedule
from repro.cluster.node import SimNode
from repro.cluster.topologies import lan_topology, paper_wan_regions, wan_topology
from repro.errors import ConfigurationError
from repro.net.latency import WANMatrixLatency
from repro.net.network import SimNetwork
from repro.protocol.base import Replica
from repro.sim.engine import Simulator


class _EchoReplica(Replica):
    """Replica that records messages and echoes each original back once."""

    protocol_name = "echo"

    def __init__(self) -> None:
        super().__init__()
        self.received = []

    def on_message(self, src, message):
        if isinstance(message, tuple) and message and message[0] == "echo":
            self.received.append((src, message[1]))
            return
        self.received.append((src, message))
        self.send(src, ("echo", message))


class TestNodeCPUModel:
    def test_costs_scale_with_size(self):
        cpu = NodeCPUModel(recv_per_message=1e-5, per_byte=1e-8)
        assert cpu.receive_cost(1000) == pytest.approx(2e-5)
        assert cpu.receive_cost(0) == pytest.approx(1e-5)

    def test_client_request_surcharge(self):
        cpu = NodeCPUModel(recv_per_message=1e-5, per_byte=0.0, client_request_extra=5e-5)
        assert cpu.receive_cost(100, is_client_request=True) == pytest.approx(6e-5)

    def test_scaled_model(self):
        cpu = NodeCPUModel().scaled(2.0)
        assert cpu.recv_per_message == pytest.approx(NodeCPUModel().recv_per_message * 2)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeCPUModel(recv_per_message=-1.0)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeCPUModel().scaled(0.0)


class TestSimNode:
    def _setup(self, cpu=None):
        sim = Simulator(seed=0)
        topology = lan_topology(2)
        network = SimNetwork(sim, topology)
        nodes = {}
        for node_id in (0, 1):
            node = SimNode(node_id, sim, network, cpu=cpu or NodeCPUModel(), all_nodes=[0, 1])
            node.host(_EchoReplica())
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
        assert not nodes[1].is_reachable()

    def test_recovered_node_processes_again(self):
        sim, network, nodes = self._setup()
        nodes[1].crash()
        nodes[1].recover()
        nodes[0].replica.send(1, "hello")
        sim.run()
        assert nodes[1].replica.received == [(0, "hello")]

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

    def test_charges_accumulate_busy_time(self):
        sim, network, nodes = self._setup()
        before = nodes[0].busy_time_total
        nodes[0].charge_execution(10)
        nodes[0].charge_graph_work(100)
        nodes[0].charge_overhead(2)
        assert nodes[0].busy_time_total > before


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


class TestFaultSchedule:
    def test_crash_window_produces_two_events(self):
        schedule = FaultSchedule().crash_window(3, 1.0, 2.0)
        kinds = [event.kind for event in schedule]
        assert kinds == [FaultKind.CRASH, FaultKind.RECOVER]

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule().crash_window(3, 2.0, 1.0)

    def test_events_iterate_in_time_order(self):
        schedule = FaultSchedule().recover(1, at=5.0).crash(1, at=1.0)
        times = [event.at for event in schedule]
        assert times == [1.0, 5.0]

    def test_sluggish_with_until_restores(self):
        schedule = FaultSchedule().sluggish(2, at=1.0, factor=4.0, until=2.0)
        events = list(schedule)
        assert events[0].factor == 4.0 and events[1].factor == 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule().crash(0, at=-1.0)


class TestBuilder:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterBuilder().protocol("raft")

    def test_builder_wires_nodes_clients_and_replicas(self):
        cluster = (
            ClusterBuilder()
            .protocol("pigpaxos")
            .nodes(5)
            .relay_groups(2)
            .clients(3)
            .seed(11)
            .build()
        )
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

    def test_fault_schedule_applied_during_run(self):
        schedule = FaultSchedule().crash(4, at=0.1)
        cluster = build_cluster(protocol="paxos", num_nodes=5, num_clients=1, seed=1,
                                fault_schedule=schedule)
        cluster.run(0.2)
        assert cluster.nodes[4].crashed

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
        assert paxos.nodes[0].replica._client_sessions.window == 4
        epaxos = build_cluster(protocol="epaxos", num_nodes=3, num_clients=1, protocol_config=config)
        assert epaxos.nodes[0].replica._session_window == 4

    def test_epaxos_without_config_uses_default_window(self):
        from repro.statemachine.sessions import DEFAULT_SESSION_WINDOW

        cluster = build_cluster(protocol="epaxos", num_nodes=3, num_clients=1)
        assert cluster.nodes[0].replica._session_window == DEFAULT_SESSION_WINDOW

