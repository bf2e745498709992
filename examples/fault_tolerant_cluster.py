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

from repro.bench.plots import format_table
from repro.cluster.builder import build_cluster
from repro.cluster.faults import FaultSchedule
from repro.overlay.config import OverlayConfig
from repro.protocol.config import ProtocolConfig


def follower_failure_demo() -> None:
    print("=== 1. Single follower failure in one relay group (25 nodes, 3 groups) ===\n")
    schedule = FaultSchedule().crash_window(24, start=1.0, end=2.0)
    cluster = build_cluster(
        protocol="pigpaxos",
        num_nodes=25,
        num_clients=120,
        seed=3,
        fault_schedule=schedule,
        protocol_config=ProtocolConfig(
            overlay=OverlayConfig(kind="relay", num_groups=3, relay_timeout=0.05)
        ),
    )
    cluster.sim.metrics.timeseries("client.completions", interval=0.25)
    cluster.run(3.0)

    series = cluster.sim.metrics.timeseries("client.completions", interval=0.25).rates(end=3.0)
    rows = [[f"{t:.2f}", f"{rate:.0f}", "<-- node 24 down" if 1.0 <= t < 2.0 else ""] for t, rate in series]
    print(format_table(["window start (s)", "throughput (req/s)", ""], rows))

    before = [r for t, r in series if 0.25 <= t < 1.0]
    during = [r for t, r in series if 1.25 <= t < 2.0]
    dip = 100 * (1 - (sum(during) / len(during)) / (sum(before) / len(before)))
    print(f"\nThroughput dip while the follower is down: {dip:.1f}% (paper reports ~3%)\n")
    assert cluster.logs_agree()


def leader_failover_demo() -> None:
    print("=== 2. Leader crash and automatic failover (9 nodes, 2 groups) ===\n")
    config = ProtocolConfig(election_timeout_min=0.15, election_timeout_max=0.3,
                            heartbeat_interval=0.03)
    schedule = FaultSchedule().crash(0, at=1.0)
    cluster = build_cluster(
        protocol="pigpaxos", num_nodes=9, num_clients=30, seed=5, relay_groups=2,
        protocol_config=config, fault_schedule=schedule,
    )
    cluster.sim.metrics.timeseries("client.completions", interval=0.25)
    cluster.run(3.0)

    series = cluster.sim.metrics.timeseries("client.completions", interval=0.25).rates(end=3.0)
    rows = [[f"{t:.2f}", f"{rate:.0f}", "<-- leader crashed" if abs(t - 1.0) < 0.01 else ""] for t, rate in series]
    print(format_table(["window start (s)", "throughput (req/s)", ""], rows))
    print(f"\nOld leader: node 0 (crashed at t=1.0s).  New leader: node {cluster.leader_id()}.")
    print(f"Replicas still agree on the committed prefix: {cluster.logs_agree()}\n")
    assert cluster.leader_id() not in (None, 0)


def main() -> None:
    follower_failure_demo()
    leader_failover_demo()


if __name__ == "__main__":
    main()
