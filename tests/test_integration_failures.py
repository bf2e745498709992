"""Failure-injection integration tests.

These exercise the fault-tolerance claims of Section 3.4 and the behaviour
behind Figure 13: follower failures only delay the affected relay group,
relay failures are healed by random re-selection and leader retries, and a
leader failure triggers a new election while the log stays consistent.
Every run goes through the scenario runner, so each also passes the
linearizability and log-invariant checkers.
"""

from __future__ import annotations

from repro.scenarios import Scenario, ScenarioEvent, run_scenario
from repro.workload.spec import WorkloadSpec

WORKLOAD = WorkloadSpec(num_keys=50)
FAST_ELECTIONS = {
    "election_timeout_min": 0.15,
    "election_timeout_max": 0.3,
    "heartbeat_interval": 0.03,
}


def _run(protocol, duration, **shape):
    scenario = Scenario(
        name="failure-probe", protocol=protocol, duration=duration, workload=WORKLOAD, **shape
    )
    result = run_scenario(scenario)
    result.raise_on_violations()
    return result


class TestFollowerAndRelayFailures:
    def test_pigpaxos_keeps_committing_with_one_crashed_follower(self):
        result = _run("pigpaxos", 0.6, num_nodes=9, num_clients=6, seed=21, relay_groups=3,
                      events=(ScenarioEvent.crash(0.1, 4),))
        assert result.cluster.nodes[4].crashed
        assert result.completed_requests > 100

    def test_pigpaxos_survives_minority_crash(self):
        # 9 nodes tolerate 4 failures; crash 3 followers across groups.
        result = _run("pigpaxos", 0.8, num_nodes=9, num_clients=6, seed=21, relay_groups=3,
                      events=tuple(ScenarioEvent.crash(0.1, node) for node in (3, 5, 7)))
        assert result.completed_requests > 50

    def test_throughput_recovers_after_follower_returns(self):
        result = _run("pigpaxos", 1.0, num_nodes=9, num_clients=10, seed=21, relay_groups=3,
                      events=(ScenarioEvent.crash(0.3, 4), ScenarioEvent.recover(0.6, 4)))
        rates = dict(result.completion_rates(interval=0.1))
        during = rates.get(0.4, 0.0) + rates.get(0.5, 0.0)
        after = rates.get(0.8, 0.0) + rates.get(0.9, 0.0)
        assert after > 0
        assert during > 0  # a single follower failure does not halt progress

    def test_paxos_also_survives_follower_crash(self):
        result = _run("paxos", 0.6, num_nodes=5, num_clients=6, seed=21,
                      events=(ScenarioEvent.crash(0.1, 2),))
        assert result.completed_requests > 100


class TestLeaderFailure:
    def test_new_leader_elected_after_crash(self):
        result = _run("pigpaxos", 2.5, num_nodes=5, num_clients=4, seed=23, relay_groups=2,
                      config_overrides=FAST_ELECTIONS, events=(ScenarioEvent.crash(0.3, 0),))
        new_leader = result.cluster.leader_id()
        assert new_leader is not None and new_leader != 0

    def test_clients_make_progress_after_failover(self):
        result = _run("pigpaxos", 3.0, num_nodes=5, num_clients=4, seed=23, relay_groups=2,
                      config_overrides=FAST_ELECTIONS, events=(ScenarioEvent.crash(0.3, 0),))
        rates = dict(result.completion_rates(interval=0.5))
        assert rates.get(2.5, 0.0) > 0  # requests complete well after the crash

    def test_recovered_old_leader_rejoins_as_follower(self):
        result = _run("paxos", 3.0, num_nodes=5, num_clients=4, seed=29,
                      config_overrides=FAST_ELECTIONS,
                      events=(ScenarioEvent.crash(0.3, 0), ScenarioEvent.recover(1.5, 0)))
        assert result.cluster.leader_id() is not None
        old_leader = result.cluster.nodes[0].replica
        # The old leader either stays a follower or re-won with a higher ballot;
        # either way its log agrees (checked by the runner) and it is not using
        # the old ballot.
        assert old_leader.promised.round >= 1


class TestNetworkFaults:
    def test_message_drops_do_not_break_agreement(self):
        result = _run("pigpaxos", 0.8, num_nodes=5, num_clients=4, seed=31, relay_groups=2,
                      drop_probability=0.02)
        assert result.completed_requests > 50

    def test_minority_partition_stalls_then_recovers(self):
        result = _run("paxos", 1.0, num_nodes=5, num_clients=4, seed=31,
                      events=(ScenarioEvent.partition(0.2, (3, 4), (0, 1, 2)),
                              ScenarioEvent.heal_partition(0.5)))
        assert result.completed_requests > 100
