"""Unit tests for the network substrate: latency, topology, faults, delivery."""

from __future__ import annotations

import random

import pytest

from helpers import drive_against_per_send_reference
from repro.cluster.topologies import planet_topology
from repro.errors import ConfigurationError, NetworkError
from repro.net.faults import NetworkFaults
from repro.net.latency import (
    DEFAULT_WAN_MATRIX,
    ConstantLatency,
    NormalLatency,
    WANMatrixLatency,
)
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.sizes import SizeModel
from repro.net.topology import Region, Topology
from repro.shard.addressing import shard_endpoint
from repro.sim.engine import Simulator


class _Probe(Message):
    """A test message with an adjustable payload size."""

    __slots__ = ("payload_bytes",)

    def __init__(self, payload: int = 0) -> None:
        self.payload_bytes = payload


class _Sink:
    """An endpoint that records what arrives."""

    def __init__(self, endpoint_id: int) -> None:
        self.endpoint_id = endpoint_id
        self.received = []

    def arrive(self, src: int, message: Message, size: int) -> None:
        self.received.append((src, message, size))


class TestLatencyModels:
    def test_constant_latency_zero_for_self(self):
        model = ConstantLatency(one_way=0.001)
        rng = random.Random(0)
        assert model.delay(1, 1, rng) == 0.0
        assert model.delay(1, 2, rng) == 0.001

    def test_normal_latency_has_floor(self):
        model = NormalLatency(mean=0.0001, stddev=0.01, floor=0.00005)
        rng = random.Random(1)
        assert all(model.delay(0, 1, rng) >= 0.00005 for _ in range(100))

    def test_wan_matrix_symmetric_lookup(self):
        model = WANMatrixLatency(node_region={0: "virginia", 1: "oregon"}, jitter=0.0)
        rng = random.Random(0)
        assert model.delay(0, 1, rng) == model.delay(1, 0, rng)
        assert model.delay(0, 1, rng) == DEFAULT_WAN_MATRIX[("virginia", "oregon")]

    def test_wan_matrix_intra_region_is_local(self):
        model = WANMatrixLatency(node_region={0: "virginia", 1: "virginia"}, jitter=0.0)
        assert model.base_delay(0, 1) == DEFAULT_WAN_MATRIX[("virginia", "virginia")]

    def test_wan_matrix_unknown_endpoint_treated_as_local(self):
        model = WANMatrixLatency(node_region={0: "virginia"}, jitter=0.0)
        assert model.base_delay(0, 999) == model.local_one_way

    def test_wan_cross_region_much_larger_than_local(self):
        model = WANMatrixLatency(node_region={0: "virginia", 1: "california"}, jitter=0.0)
        assert model.base_delay(0, 1) > 50 * model.local_one_way


class TestTopology:
    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology(node_ids=[0, 0, 1])

    def test_empty_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology(node_ids=[])

    def test_region_lookup(self):
        topology = Topology(
            node_ids=[0, 1, 2],
            regions=[Region("east", (0, 1)), Region("west", (2,))],
        )
        assert topology.region_of(0) == "east"
        assert topology.region_of(2) == "west"
        assert topology.region_map() == {0: "east", 1: "east", 2: "west"}
        assert topology.nodes_in_region("east") == [0, 1]

    def test_node_in_two_regions_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology(node_ids=[0, 1], regions=[Region("a", (0,)), Region("b", (0, 1))])

    def test_transmission_delay_scales_with_size(self):
        topology = Topology(node_ids=[0, 1], bandwidth_bytes_per_sec=1000.0)
        assert topology.transmission_delay(500) == pytest.approx(0.5)
        no_bandwidth = Topology(node_ids=[0, 1], bandwidth_bytes_per_sec=None)
        assert no_bandwidth.transmission_delay(500) == 0.0


class TestNetworkFaults:
    def test_severed_link_blocks_both_directions(self):
        faults = NetworkFaults()
        faults.sever_link(1, 2)
        rng = random.Random(0)
        assert faults.should_drop(1, 2, rng)
        assert faults.should_drop(2, 1, rng)
        faults.heal_link(1, 2)
        assert not faults.should_drop(1, 2, rng)

    def test_partition_blocks_across_groups_only(self):
        faults = NetworkFaults()
        faults.partition([0, 1], [2, 3])
        rng = random.Random(0)
        assert faults.should_drop(0, 2, rng)
        assert not faults.should_drop(0, 1, rng)
        assert not faults.should_drop(2, 3, rng)
        # node 4 is unmentioned, talks to everyone
        assert not faults.should_drop(0, 4, rng)
        faults.heal_partition()
        assert not faults.should_drop(0, 2, rng)

    def test_faults_are_between_machines(self):
        # Shard endpoints fold onto their machine: severing machines 0 and 1
        # cuts every group's replicas on them, and nothing else.
        faults = NetworkFaults()
        faults.sever_link(0, 1)
        rng = random.Random(0)
        assert faults.should_drop(shard_endpoint(3, 0), shard_endpoint(3, 1), rng)
        assert faults.should_drop(shard_endpoint(3, 1), shard_endpoint(3, 0), rng)
        assert faults.should_drop(shard_endpoint(3, 0), 1, rng)
        assert not faults.should_drop(0, 2, rng)
        assert not faults.should_drop(shard_endpoint(3, 0), shard_endpoint(3, 2), rng)

    def test_drop_probability_validated(self):
        with pytest.raises(ValueError):
            NetworkFaults(drop_probability=1.5)

    def test_random_drops_respect_probability(self):
        faults = NetworkFaults(drop_probability=0.5)
        rng = random.Random(7)
        drops = sum(faults.should_drop(0, 1, rng) for _ in range(2000))
        assert 800 < drops < 1200


class TestSizeModel:
    def test_header_plus_payload(self):
        model = SizeModel(header_bytes=64)
        assert model.size_of(_Probe(payload=100)) == 164
        assert model.size_of(_Probe(payload=0)) == 64

    def test_object_without_payload_method(self):
        model = SizeModel(header_bytes=32)
        assert model.size_of(object()) == 32


class TestSimNetwork:
    def _network(self, drop_probability: float = 0.0):
        sim = Simulator(seed=1)
        topology = Topology(node_ids=[0, 1], latency=ConstantLatency(0.001))
        network = SimNetwork(sim, topology, faults=NetworkFaults(drop_probability))
        return sim, network

    def test_message_delivered_after_latency(self):
        sim, network = self._network()
        sink = _Sink(1)
        network.register(_Sink(0))
        network.register(sink)
        network.send(0, 1, _Probe())
        sim.run()
        assert len(sink.received) == 1
        assert sim.now >= 0.001

    def test_send_to_unknown_endpoint_raises(self):
        _, network = self._network()
        with pytest.raises(NetworkError):
            network.send(0, 99, _Probe())

    def test_duplicate_registration_rejected(self):
        _, network = self._network()
        network.register(_Sink(0))
        with pytest.raises(NetworkError):
            network.register(_Sink(0))

    def test_unknown_endpoint_is_not_remembered(self):
        # The failed send must not poison the link: once the endpoint
        # registers, the same (src, dst) pair delivers.
        sim, network = self._network()
        network.register(_Sink(0))
        with pytest.raises(NetworkError):
            network.send(0, 1, _Probe())
        sink = _Sink(1)
        network.register(sink)
        network.send(0, 1, _Probe())
        sim.run()
        assert len(sink.received) == 1

    def test_partition_after_first_send_still_drops(self):
        # Per-link state is resolved once; fault state never is.
        sim, network = self._network()
        network.register(_Sink(0))
        sink = _Sink(1)
        network.register(sink)
        network.send(0, 1, _Probe())
        network.faults.partition([0], [1])
        network.send(0, 1, _Probe())
        network.faults.heal_partition()
        network.send(0, 1, _Probe())
        sim.run()
        assert len(sink.received) == 2
        assert sim.metrics.counter("net.messages_dropped").value == 1
        assert sim.metrics.counter("net.messages_sent").value == 3

    def test_dropped_messages_counted(self):
        sim, network = self._network(drop_probability=0.999)
        network.register(_Sink(0))
        sink = _Sink(1)
        network.register(sink)
        for _ in range(20):
            network.send(0, 1, _Probe())
        sim.run()
        assert sim.metrics.counter("net.messages_dropped").value > 0

    def test_bytes_and_kind_counters(self):
        sim, network = self._network()
        network.register(_Sink(0))
        network.register(_Sink(1))
        network.send(0, 1, _Probe(payload=36))
        sim.run()
        assert sim.metrics.counter("net.bytes_sent").value == 100
        assert sim.metrics.counter("net.sent._Probe").value == 1

    def test_larger_messages_take_longer(self):
        sim = Simulator(seed=1)
        topology = Topology(node_ids=[0, 1], latency=ConstantLatency(0.0), bandwidth_bytes_per_sec=1000.0)
        network = SimNetwork(sim, topology)
        sink = _Sink(1)
        network.register(_Sink(0))
        network.register(sink)
        network.send(0, 1, _Probe(payload=936))  # 1000 bytes on the wire
        sim.run()
        assert sim.now == pytest.approx(1.0)


class TestLinkRecord:
    """Resolving a link once must not change a single delivery time."""

    def test_planet_sends_match_per_send_latency_reference(self):
        topology = planet_topology(27, num_regions=3, zones_per_region=3)
        # Replicas plus two unplaced endpoints (clients sit outside the maps).
        endpoint_ids = [*topology.node_ids, 1000, 1001]
        records, counters = drive_against_per_send_reference(topology, endpoint_ids)
        assert all(actual == expected for _, _, actual, expected in records)

        regions, zones = topology.region_map(), topology.zone_map()
        reference = {"region.local": 0, "region.cross": 0, "zone.local": 0, "zone.cross": 0}
        for src, dst, _, _ in records:
            if src in regions and dst in regions:
                reference["region.local" if regions[src] == regions[dst] else "region.cross"] += 1
                reference["zone.local" if zones[src] == zones[dst] else "zone.cross"] += 1
        assert min(reference.values()) > 0
        for name, count in reference.items():
            assert counters[f"{name}_messages"] == count

    @pytest.mark.parametrize(
        "latency,endpoints",
        [
            (NormalLatency(), [0, 1, 2, shard_endpoint(1, 2)]),
            # floor binds ~30 %
            (NormalLatency(mean=0.0002, stddev=0.0002, floor=0.0001), [0, 1, 2, shard_endpoint(1, 2)]),
            (ConstantLatency(0.001), [0, 1, 2, shard_endpoint(1, 2)]),
            # Every machine hosts a second shard: links fold onto machine pairs.
            (NormalLatency(), [0, 1, 2, *(shard_endpoint(1, n) for n in (0, 1, 2)), shard_endpoint(2, 1)]),
        ],
        ids=["normal", "normal-floored", "constant", "normal-sharded"],
    )
    def test_lan_models_draw_from_their_link_record(self, latency, endpoints):
        topology = Topology(node_ids=[0, 1, 2], latency=latency, bandwidth_bytes_per_sec=1e6)
        records, counters = drive_against_per_send_reference(topology, endpoints, sends=100)
        assert all(actual == expected for _, _, actual, expected in records)
        assert all(len(actual) == 1 for _, _, actual, _ in records)
        assert counters["net.messages_sent"] == 100

    def test_drops_and_duplicates_keep_the_gauss_sequence(self):
        # Drops and duplicate verdicts draw from the same "network" stream
        # as the inline gauss, and a duplicate copy calls delay() on the
        # shared spare -- between the two machines, so the shard-1 replica
        # on node 2 is node 2's localhost; every arrival must still be
        # bit-equal.
        latency = NormalLatency(mean=0.0002, stddev=0.0002, floor=0.0001)
        topology = Topology(node_ids=[0, 1, 2, 3], latency=latency)
        faults = NetworkFaults(drop_probability=0.2, duplicate_probability=0.3)
        records, counters = drive_against_per_send_reference(
            topology, [0, 1, 2, 3, shard_endpoint(1, 2)], faults=faults, sends=300
        )
        assert all(actual == expected for _, _, actual, expected in records)
        dropped = sum(1 for _, _, actual, _ in records if not actual)
        duplicated = sum(1 for _, _, actual, _ in records if len(actual) == 2)
        assert dropped == counters["net.messages_dropped"] > 0
        assert duplicated == counters["net.messages_duplicated"] > 0
        assert all(len(actual) <= 2 for _, _, actual, _ in records)
