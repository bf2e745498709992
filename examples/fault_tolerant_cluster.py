"""Fault tolerance walkthrough: relay-group failures and leader failover.

Reproduces the two failure stories from the paper's Section 3.4 / Figure 13
on a 25-node PigPaxos cluster with 3 relay groups:

1. A follower in one relay group crashes for a while.  The relay's tight
   timeout caps the damage; the other two relay groups plus the leader still
   form a majority, so throughput barely moves (paper: ~3% dip).
2. The leader itself crashes.  Followers detect the silence, a new leader
   wins phase-1 with a higher ballot, and clients resume after a short stall.

Run with:  python examples/fault_tolerant_cluster.py
"""

from __future__ import annotations

from repro import Scenario, WorkloadSpec, run_scenario
from repro.bench.plots import format_table
from repro.scenarios import ScenarioEvent


def follower_failure_demo() -> None:
    print("=== 1. Single follower failure in one relay group (25 nodes, 3 groups) ===\n")
    result = run_scenario(Scenario(
        name="follower-crash-window",
        protocol="pigpaxos",
        num_nodes=25,
        num_clients=120,
        duration=3.0,
        seed=3,
        workload=WorkloadSpec.paper_default(),
        events=(ScenarioEvent.crash(1.0, 24), ScenarioEvent.recover(2.0, 24)),
        config_overrides={"overlay": {"kind": "relay", "num_groups": 3, "relay_timeout": 0.05}},
    ))
    series = result.completion_rates(interval=0.25)
    rows = [[f"{t:.2f}", f"{rate:.0f}", "<-- node 24 down" if 1.0 <= t < 2.0 else ""] for t, rate in series]
    print(format_table(["window start (s)", "throughput (req/s)", ""], rows))

    before = [r for t, r in series if 0.25 <= t < 1.0]
    during = [r for t, r in series if 1.25 <= t < 2.0]
    dip = 100 * (1 - (sum(during) / len(during)) / (sum(before) / len(before)))
    print(f"\nThroughput dip while the follower is down: {dip:.1f}% (paper reports ~3%)\n")
    result.raise_on_violations()  # linearizability + cross-replica log invariants


def leader_failover_demo() -> None:
    print("=== 2. Leader crash and automatic failover (9 nodes, 2 groups) ===\n")
    result = run_scenario(Scenario(
        name="leader-failover",
        protocol="pigpaxos",
        num_nodes=9,
        num_clients=30,
        relay_groups=2,
        duration=3.0,
        seed=5,
        workload=WorkloadSpec.paper_default(),
        events=(ScenarioEvent.crash(1.0, 0),),
        config_overrides={"election_timeout_min": 0.15, "election_timeout_max": 0.3,
                          "heartbeat_interval": 0.03},
    ))
    series = result.completion_rates(interval=0.25)
    new_leader = result.cluster.leader_id()
    rows = [[f"{t:.2f}", f"{rate:.0f}", "<-- leader crashed" if abs(t - 1.0) < 0.01 else ""] for t, rate in series]
    print(format_table(["window start (s)", "throughput (req/s)", ""], rows))
    print(f"\nOld leader: node 0 (crashed at t=1.0s).  New leader: node {new_leader}.")
    print(f"Safety checkers (linearizability + log invariants) pass: {result.ok}\n")
    assert result.ok and new_leader not in (None, 0)


def main() -> None:
    follower_failure_demo()
    leader_failover_demo()


if __name__ == "__main__":
    main()
