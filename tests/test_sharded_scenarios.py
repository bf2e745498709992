"""Cross-shard correctness battery.

The canned sharded scenarios already run through the full-checker sweep in
``tests/test_scenarios.py``; this file holds the *targeted* assertions that
make sharding trustworthy: faults confined to one group leave the others
live, per-shard counters actually expose load placement, the builder
rejects configurations it cannot honour, and -- the teeth test -- a client
that routes a key to the wrong group's leader is caught by the
linearizability checker even though every per-group safety check stays
green (the wrong group commits the misrouted command perfectly happily).
"""

from __future__ import annotations

import pytest

from helpers import library_run
from repro.checkers.linearizability import check_linearizability
from repro.cluster.builder import build_cluster
from repro.errors import ConfigurationError
from repro.scenarios import get_scenario, run_scenario
from repro.shard import physical_node, shard_of_endpoint
from repro.sim.metrics import shard_summary, shard_traffic
from repro.workload.spec import WorkloadSpec


def _sharded_cluster():
    return build_cluster(
        "paxos", num_nodes=5, num_clients=4, seed=9, shards=4,
        workload=WorkloadSpec.checking_default(num_keys=8),
    )


class TestShardedFaultScenarios:
    def test_crash_shard_leader_keeps_other_shards_live(self):
        run = library_run("sharded-crash-shard-leader")
        assert run.ok, run.violations
        assert run.counters.get("faults.crashes", 0) >= 1
        traffic = shard_traffic(run.counters)
        assert sorted(traffic) == [0, 1, 2, 3]
        # Every shard -- including shard 1, whose leader's machine died --
        # completes operations (the crash heals mid-run).
        assert all(stats["completions"] > 0 for _, stats in sorted(traffic.items()))

    def test_partition_straddle_stalls_only_minority_side_shards(self):
        run = library_run("sharded-partition-straddle")
        assert run.ok, run.violations
        traffic = shard_traffic(run.counters)
        # Shards 2/3 lead from the majority side and ride through the
        # partition; shards 0/1 lead from the stranded minority and lose
        # most of the partition window.  The gap is the signature.
        majority_side = traffic[2]["completions"] + traffic[3]["completions"]
        minority_side = traffic[0]["completions"] + traffic[1]["completions"]
        assert majority_side > minority_side
        assert all(stats["completions"] > 0 for _, stats in sorted(traffic.items()))

    def test_hot_shard_zipfian_shows_imbalance_in_counters(self):
        run = library_run("sharded-hot-shard-zipf")
        assert run.ok, run.violations
        summary = shard_summary(run.counters)
        assert summary["num_shards"] == 4.0
        # Zipfian skew concentrates on the low key indices, all owned by
        # shard 0: it must dominate, and visibly so.
        traffic = shard_traffic(run.counters)
        hottest = max(sorted(traffic), key=lambda shard: traffic[shard]["completions"])
        assert hottest == 0
        assert summary["hottest_share"] > 0.5
        assert summary["completions_total"] == run.completed_requests


class TestMisroutingMutation:
    def test_client_sending_keys_to_wrong_group_trips_linearizability(self):
        # Mutation test: ONE client routes every key to the wrong group's
        # leader, so a key's operations split across two consensus groups.
        # Each group commits its share with perfect internal consistency --
        # the per-group log checks MUST stay green -- but reads through the
        # correct group never observe the misrouted writes, which is
        # exactly the split-brain the linearizability checker exists for.
        cluster = _sharded_cluster()
        victim = cluster.clients[0]
        # Shift every key of the victim's routing table one shard over.
        num_shards = len(victim._groups)
        victim._shard_of = {
            key: (shard + 1) % num_shards for key, shard in victim._shard_of.items()
        }
        cluster.start()
        cluster.sim.run(until=1.0)

        from repro.checkers.invariants import run_log_checks

        for view in cluster.shard_views():
            assert run_log_checks(view) == []
        violations = check_linearizability(cluster.history())
        assert violations, (
            "misrouted client went undetected: a key's history split across "
            "two groups must violate linearizability"
        )

    def test_control_run_without_mutation_is_clean(self):
        # The control for the mutation above: identical build, no tampering.
        cluster = _sharded_cluster()
        cluster.start()
        cluster.sim.run(until=1.0)
        assert check_linearizability(cluster.history()) == []


class TestBuilderRejections:
    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            build_cluster("paxos", shards=0)

    def test_rejects_more_shards_than_keys(self):
        with pytest.raises(ConfigurationError, match="num_keys"):
            build_cluster("paxos", num_clients=2, shards=8,
                          workload=WorkloadSpec.checking_default(num_keys=4))

    def test_rejects_relay_groups_incompatible_with_sharding(self):
        # Each shard instance fans out over the SAME physical node set, so
        # relay groups must still fit in num_nodes - 1 followers.
        with pytest.raises(ConfigurationError, match="relay"):
            build_cluster("pigpaxos", num_clients=2, relay_groups=5, shards=2,
                          workload=WorkloadSpec.checking_default(num_keys=8))

    def test_rejects_explicit_initial_leader_override(self):
        # Sharded leader placement is owned by round_robin_leaders; a
        # hand-pinned initial_leader would silently apply to every group.
        with pytest.raises(ConfigurationError, match="initial_leader"):
            build_cluster("paxos", num_clients=2, shards=2,
                          protocol_config={"initial_leader": 2},
                          workload=WorkloadSpec.checking_default(num_keys=8))


class TestShardedDeterminism:
    def test_leaders_are_round_robin_across_machines(self):
        cluster = _sharded_cluster()
        cluster.start()
        cluster.sim.run(until=0.2)
        leaders = [cluster.shard_leader_endpoint(shard) for shard in range(4)]
        assert [physical_node(leader) for leader in leaders] == [0, 1, 2, 3]
        assert [shard_of_endpoint(leader) for leader in leaders] == [0, 1, 2, 3]

    def test_same_seed_same_fingerprint(self):
        scenario = get_scenario("paxos-sharded-4")
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.fingerprint() == second.fingerprint()
        assert first.completed_requests == second.completed_requests
