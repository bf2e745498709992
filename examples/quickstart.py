"""Quickstart: run a simulated PigPaxos cluster and compare it with Paxos.

This is the 60-second tour of the library: declare a 9-node ``Scenario`` of
each protocol with the paper's default workload (1000 uniform keys, 50/50
reads/writes), drive it with closed-loop clients, and print throughput,
latency, the leader's message load and the safety checkers' verdict.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Scenario, WorkloadSpec, run_scenario
from repro.analysis.model import messages_at_leader, paxos_messages_at_leader
from repro.bench.plots import format_table

NUM_NODES = 9
NUM_CLIENTS = 60
DURATION = 0.8  # simulated seconds
RELAY_GROUPS = 2


def run_protocol(protocol: str):
    result = run_scenario(Scenario(
        name=f"quickstart-{protocol}",
        protocol=protocol,
        num_nodes=NUM_NODES,
        num_clients=NUM_CLIENTS,
        relay_groups=RELAY_GROUPS if protocol == "pigpaxos" else None,
        duration=DURATION,
        seed=7,
        workload=WorkloadSpec.paper_default(),
    ))
    stats = result.stats()  # whole run; pass start=/end= to trim a warm-up
    counters = result.counters()
    leader = result.cluster.leader_id()
    leader_messages = counters[f"node.{leader}.messages_in"] + counters[f"node.{leader}.messages_out"]
    return {
        "protocol": protocol,
        "throughput": stats.throughput,
        "latency_ms": stats.latency_mean_ms,
        "leader_msgs_per_request": leader_messages / max(stats.completed_requests, 1),
        "checkers_ok": result.ok,  # linearizability + cross-replica log invariants
    }


def main() -> None:
    print(f"Simulating {NUM_NODES}-node clusters with {NUM_CLIENTS} closed-loop clients...\n")
    results = [run_protocol(protocol) for protocol in ("paxos", "pigpaxos")]

    rows = [
        [
            r["protocol"],
            f"{r['throughput']:.0f}",
            f"{r['latency_ms']:.2f}",
            f"{r['leader_msgs_per_request']:.1f}",
            "yes" if r["checkers_ok"] else "NO",
        ]
        for r in results
    ]
    print(format_table(
        ["protocol", "throughput (req/s)", "mean latency (ms)", "leader msgs/request", "safety checks pass"],
        rows,
    ))

    print(
        "\nAnalytical model (Section 6): the Paxos leader handles "
        f"{paxos_messages_at_leader(NUM_NODES):.0f} messages per request, the PigPaxos leader "
        f"only {messages_at_leader(RELAY_GROUPS):.0f} with {RELAY_GROUPS} relay groups -- "
        "which is exactly why PigPaxos scales further before the leader saturates."
    )


if __name__ == "__main__":
    main()
