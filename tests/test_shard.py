"""Property tests for the sharding layer (:mod:`repro.shard`).

The router is the one component every sharded client trusts blindly: a key
that maps to two shards (or none) silently splits one register's history
across two consensus groups, which the per-group checkers cannot see.  So
the properties here are exhaustive over the keyspace, not sampled: every
key maps to exactly one shard, the shard ranges partition the keyspace
exactly, and the mapping is deterministic and iteration-order independent.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from helpers import ArrivalSink, SizedProbe, drive_against_per_send_reference
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

REPO_ROOT = Path(__file__).resolve().parent.parent
SHARD_PACKAGE = REPO_ROOT / "src" / "repro" / "shard"


def key_for_index(index, key_size=8):
    """The workload generator's fixed-width key format (k0000012)."""
    return f"k{index:0{max(1, key_size - 1)}d}"

#: (num_shards, num_keys) shapes covering 1 shard, even and uneven splits,
#: prime counts and the one-key-per-shard extreme.
SHAPES = [(1, 1), (1, 25), (2, 25), (4, 10), (4, 25), (7, 25), (8, 1000), (25, 25)]


class TestShardMapPartition:
    @pytest.mark.parametrize("num_shards,num_keys", SHAPES)
    def test_every_key_maps_to_exactly_one_shard(self, num_shards, num_keys):
        shard_map = ShardMap(num_shards, num_keys)
        key_size = 8
        for index in range(num_keys):
            key = key_for_index(index, key_size)
            owners = [
                shard
                for shard in range(num_shards)
                if shard_map.range_of(shard)[0] <= index < shard_map.range_of(shard)[1]
            ]
            assert owners == [shard_map.shard_of_key(key)]
            assert shard_map.shard_of_index(index) == owners[0]

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
        keys = [key_for_index(index, 8) for index in range(num_keys)]
        baseline = {key: ShardMap(num_shards, num_keys).shard_of_key(key) for key in keys}
        # A fresh map, queried in a shuffled order, agrees key-for-key.
        shuffled = list(keys)
        random.Random(17).shuffle(shuffled)
        remap = ShardMap(num_shards, num_keys)
        assert {key: remap.shard_of_key(key) for key in shuffled} == baseline
        # And re-querying the same map is stable.
        assert [remap.shard_of_key(key) for key in keys] == [baseline[key] for key in keys]

    def test_non_conforming_keys_hash_stably(self):
        # Keys outside the generator's k<digits> format fall back to CRC32:
        # deterministic across processes (unlike hash()) and in range.
        shard_map = ShardMap(4, 25)
        for key in ("watermark", "", "k", "kxyz", "k-3", "key0001"):
            shard = shard_map.shard_of_key(key)
            assert 0 <= shard < 4
            assert ShardMap(4, 25).shard_of_key(key) == shard

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
    def _router(self, num_shards=4, num_keys=25, nodes=(0, 1, 2, 3, 4)):
        nodes = list(nodes)
        groups = [
            [shard_endpoint(shard, node) for node in nodes] for shard in range(num_shards)
        ]
        return ShardRouter(
            ShardMap(num_shards, num_keys),
            groups,
            round_robin_leaders(num_shards, nodes),
        )

    def test_routes_key_to_owning_group(self):
        router = self._router()
        for index in range(25):
            key = key_for_index(index, 8)
            shard = router.shard_of_key(key)
            group = router.group_of(shard)
            assert router.leader_of(shard) in group
            assert all(shard_of_endpoint(endpoint) == shard for endpoint in group)

    def test_rejects_mismatched_groups_and_leaders(self):
        shard_map = ShardMap(2, 10)
        groups = [[shard_endpoint(0, 0)], [shard_endpoint(1, 0)]]
        with pytest.raises(ConfigurationError):
            ShardRouter(shard_map, groups[:1], [0, shard_endpoint(1, 0)])
        with pytest.raises(ConfigurationError):
            ShardRouter(shard_map, groups, [0])
        with pytest.raises(ConfigurationError):
            # Leader outside its own group.
            ShardRouter(shard_map, groups, [0, shard_endpoint(1, 4)])
        with pytest.raises(ConfigurationError):
            ShardRouter(shard_map, [groups[0], []], [0, shard_endpoint(1, 0)])


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
