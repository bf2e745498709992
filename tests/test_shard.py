"""Property tests for the sharding layer (:mod:`repro.shard`).

The router is the one component every client trusts blindly: a key that
maps to two shards (or none) silently splits one register's history across
two consensus groups, which the per-group checkers cannot see.  So the
properties here are exhaustive over the keyspace, not sampled: every key
maps to exactly one shard, the shard ranges partition the keyspace exactly,
the router's table holds exactly the keys a client can draw, and the
mapping is deterministic and iteration-order independent.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from helpers import ArrivalSink, SizedProbe, drive_against_per_send_reference
from repro.cluster.builder import build_cluster
from repro.cluster.topologies import lan_topology, wan_topology
from repro.errors import ConfigurationError
from repro.lint import LintEngine, default_rules
from repro.net.latency import LatencyModel, LinkDelay
from repro.net.network import SimNetwork
from repro.net.topology import Topology
from repro.shard import (
    SHARD_ENDPOINT_STRIDE,
    ShardMap,
    ShardRouter,
    physical_node,
    round_robin_leaders,
    shard_endpoint,
    shard_of_endpoint,
)
from repro.sim.engine import Simulator
from repro.workload.generator import CommandGenerator
from repro.workload.spec import WorkloadSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
SHARD_PACKAGE = REPO_ROOT / "src" / "repro" / "shard"


#: (num_shards, num_keys) shapes covering 1 shard, even and uneven splits,
#: prime counts and the one-key-per-shard extreme.
SHAPES = [(1, 1), (1, 25), (2, 25), (4, 10), (4, 25), (7, 25), (8, 1000), (25, 25)]


class TestShardMapPartition:
    @pytest.mark.parametrize("num_shards,num_keys", SHAPES)
    def test_every_key_maps_to_exactly_one_shard(self, num_shards, num_keys):
        shard_map = ShardMap(num_shards, num_keys)
        for index in range(num_keys):
            owners = [
                shard
                for shard in range(num_shards)
                if shard_map.range_of(shard)[0] <= index < shard_map.range_of(shard)[1]
            ]
            assert owners == [shard_map.shard_of_index(index)]

    @pytest.mark.parametrize("num_shards,num_keys", SHAPES)
    def test_ranges_partition_keyspace_exactly(self, num_shards, num_keys):
        shard_map = ShardMap(num_shards, num_keys)
        ranges = [shard_map.range_of(shard) for shard in range(num_shards)]
        # Contiguous: each range starts where the previous ended.
        assert ranges[0][0] == 0
        assert ranges[-1][1] == num_keys
        for (_, prev_end), (start, _) in zip(ranges, ranges[1:]):
            assert start == prev_end
        # Non-empty and totals to the keyspace (no overlap possible given
        # contiguity + the total).
        assert all(end > start for start, end in ranges)
        assert sum(end - start for start, end in ranges) == num_keys

    @pytest.mark.parametrize("num_shards,num_keys", SHAPES)
    def test_mapping_is_deterministic_and_order_independent(self, num_shards, num_keys):
        spec = WorkloadSpec(num_keys=num_keys)
        keys = [spec.key(index) for index in range(num_keys)]
        groups = [[shard_endpoint(shard, 0)] for shard in range(num_shards)]
        leaders = round_robin_leaders(num_shards, [0])
        first = ShardRouter(keys, groups, leaders).shard_of
        second = ShardRouter(keys, groups, leaders).shard_of
        # Two routers agree key-for-key, and in the same (key index) order.
        assert list(first.items()) == list(second.items())
        assert list(first) == keys

    @pytest.mark.parametrize("num_shards,num_keys", SHAPES)
    @pytest.mark.parametrize("key_size", [1, 2, 3, 8, 12])
    def test_client_table_holds_exactly_the_drawable_keys(self, num_shards, num_keys, key_size):
        # The table a built cluster's clients route by: every key the
        # generator can draw (key_size 1-3 leaves keys unpadded or short),
        # each owned by its index's shard, and nothing else.
        spec = WorkloadSpec(num_keys=num_keys, key_size=key_size)
        cluster = build_cluster("paxos", num_nodes=3, num_clients=1, shards=num_shards, workload=spec)
        table = cluster.clients[0]._shard_of
        shard_map = ShardMap(num_shards, num_keys)
        assert table == {spec.key(index): shard_map.shard_of_index(index) for index in range(num_keys)}
        assert len(table) == num_keys
        generator = CommandGenerator(spec, client_id=1, rng=random.Random(num_keys))
        drawn = {generator.next_command().key for _ in range(4 * num_keys)}
        assert drawn <= set(table)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            ShardMap(0, 10)
        with pytest.raises(ConfigurationError):
            ShardMap(11, 10)  # more shards than keys
        with pytest.raises(ConfigurationError):
            ShardMap(1, 0)


class TestAddressing:
    def test_endpoint_roundtrip(self):
        for shard in (0, 1, 7, 63):
            for node in (0, 4, 24, SHARD_ENDPOINT_STRIDE - 1):
                endpoint = shard_endpoint(shard, node)
                assert physical_node(endpoint) == node
                assert shard_of_endpoint(endpoint) == shard

    def test_shard_zero_uses_raw_physical_ids(self):
        # The unsharded deployment *is* shard 0; its endpoints must be the
        # untranslated node ids so the single-group path stays byte-identical.
        assert [shard_endpoint(0, node) for node in range(5)] == [0, 1, 2, 3, 4]

    def test_round_robin_leaders_spread_across_nodes(self):
        nodes = [0, 1, 2, 3, 4]
        leaders = round_robin_leaders(4, nodes)
        assert [physical_node(leader) for leader in leaders] == [0, 1, 2, 3]
        assert [shard_of_endpoint(leader) for leader in leaders] == [0, 1, 2, 3]
        # More shards than nodes: placement wraps.
        wrapped = round_robin_leaders(7, nodes)
        assert [physical_node(leader) for leader in wrapped] == [0, 1, 2, 3, 4, 0, 1]

    def test_network_folds_shard_endpoints_onto_machines(self):
        class FixedLatency(LatencyModel):
            def delay(self, src, dst, rng):
                return 0.001 * (src * 100 + dst)

            def link(self, src, dst):
                return LinkDelay(0.001 * (src * 100 + dst))

        sim = Simulator(seed=1)
        topology = Topology(node_ids=[0, 1, 2], latency=FixedLatency(), bandwidth_bytes_per_sec=None)
        network = SimNetwork(sim, topology)
        sinks = {
            endpoint: ArrivalSink(endpoint, sim)
            for endpoint in (1, 2, shard_endpoint(3, 1), shard_endpoint(2, 2))
        }
        for sink in sinks.values():
            network.register(sink)
        raw = FixedLatency().delay(1, 2, None)
        for src, dst in [(1, 2), (shard_endpoint(3, 1), shard_endpoint(2, 2)), (shard_endpoint(3, 1), 2)]:
            network.send(src, dst, SizedProbe())
        sim.run()
        arrivals = sinks[2].arrivals + sinks[shard_endpoint(2, 2)].arrivals
        assert [time for time, _, _, _ in arrivals] == [raw, raw, raw]

    @pytest.mark.parametrize("topology", [lan_topology(3), wan_topology(num_nodes=6)], ids=["lan", "wan"])
    def test_sharded_sends_match_per_send_latency_reference(self, topology):
        # The network resolves each link's static delay once, folding both
        # ends onto their machines; deliveries must stay bit-equal to
        # folding per send, and shard-group endpoints must still classify
        # as no locality.
        endpoints = [shard_endpoint(s, n) for s in range(3) for n in topology.node_ids] + [1000]
        records, counters = drive_against_per_send_reference(topology, endpoints)
        assert all(actual == expected for _, _, actual, expected in records)
        placed = topology.region_map()
        shard0_pairs = sum(1 for src, dst, _, _ in records if src in placed and dst in placed)
        assert shard0_pairs == sum(
            counters.get(f"region.{scope}_messages", 0) for scope in ("local", "cross")
        )


class TestShardRouter:
    def test_routes_key_to_owning_group(self):
        nodes = [0, 1, 2, 3, 4]
        groups = [[shard_endpoint(shard, node) for node in nodes] for shard in range(4)]
        spec = WorkloadSpec(num_keys=25)
        router = ShardRouter(
            [spec.key(index) for index in range(25)], groups, round_robin_leaders(4, nodes)
        )
        for index in range(25):
            shard = router.shard_of[spec.key(index)]
            group = router.groups[shard]
            assert router.leaders[shard] in group
            assert all(shard_of_endpoint(endpoint) == shard for endpoint in group)

    def test_rejects_mismatched_groups_and_leaders(self):
        keys = [WorkloadSpec(num_keys=10).key(index) for index in range(10)]
        groups = [[shard_endpoint(0, 0)], [shard_endpoint(1, 0)]]
        with pytest.raises(ConfigurationError):
            ShardRouter(keys, groups[:1], [0, shard_endpoint(1, 0)])
        with pytest.raises(ConfigurationError):
            ShardRouter(keys, groups, [0])
        with pytest.raises(ConfigurationError):
            # Leader outside its own group.
            ShardRouter(keys, groups, [0, shard_endpoint(1, 4)])
        with pytest.raises(ConfigurationError):
            ShardRouter(keys, [groups[0], []], [0, shard_endpoint(1, 0)])
        with pytest.raises(ConfigurationError):
            # More groups than keys.
            ShardRouter(keys[:1], groups, [0, shard_endpoint(1, 0)])


class TestShardPackageHygiene:
    def test_shard_package_is_clean_under_unordered_iteration_rule(self):
        # The router feeds every client's target choice; an unordered dict
        # iteration anywhere in the package would thread scheduling
        # nondeterminism into message order.  The package must be clean
        # under the rule *without* suppressions.
        engine = LintEngine(default_rules(["no-unordered-iteration"]))
        files = sorted(SHARD_PACKAGE.glob("*.py"))
        assert files, "shard package not found"
        findings, suppressions = engine.lint_paths(files)
        assert findings == []
        assert suppressions == []
