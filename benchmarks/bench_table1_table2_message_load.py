"""Tables 1 and 2: analytical message load at the leader and followers.

These tables are analytical in the paper (formulas 1-3); the benchmark
regenerates them exactly and additionally cross-checks the model against
*measured* per-node message counts from a short simulated run.
"""

from __future__ import annotations

import pytest

from _common import comparison_table, paper_scenario, report, run_checked
from repro.analysis.model import message_load_table, messages_at_leader

PAPER_TABLE1 = {  # r -> (Ml, Mf, overhead %)
    2: (6, 3.83, 56), 3: (8, 3.75, 113), 4: (10, 3.67, 172),
    5: (12, 3.58, 234), 6: (14, 3.50, 300), 24: (50, 2.0, 2400),
}
PAPER_TABLE2 = {2: (6, 3.5, 71), 3: (8, 3.25, 146), 4: (10, 3.0, 233), 8: (18, 2.0, 800)}


def _rows(n, counts, paper):
    rows = []
    for row in message_load_table(n, relay_group_counts=counts):
        expected = paper[row.relay_groups]
        rows.append([
            row.label(),
            expected[0], round(row.messages_at_leader, 2),
            expected[1], round(row.messages_at_follower, 2),
            f"{expected[2]}%", f"{row.leader_overhead * 100:.0f}%",
        ])
    return rows


@pytest.mark.benchmark(group="tables")
def test_table1_and_table2_message_load(benchmark):
    def _generate():
        return (
            _rows(25, [2, 3, 4, 5, 6], PAPER_TABLE1),
            _rows(9, [2, 3, 4], PAPER_TABLE2),
        )

    table1, table2 = benchmark.pedantic(_generate, rounds=1, iterations=1)
    headers = ["relay groups", "paper Ml", "model Ml", "paper Mf", "model Mf", "paper overhead", "model overhead"]
    lines = ["Table 1 (25 nodes):", *comparison_table(headers, table1), "",
             "Table 2 (9 nodes):", *comparison_table(headers, table2)]
    report("table1_table2_message_load", "Tables 1 & 2 -- analytical message load", lines)

    for row in message_load_table(25, relay_group_counts=[2, 3, 4, 5, 6]):
        paper_ml, paper_mf, paper_overhead = PAPER_TABLE1[row.relay_groups]
        assert row.messages_at_leader == paper_ml
        assert row.messages_at_follower == pytest.approx(paper_mf, abs=0.01)
        assert row.leader_overhead * 100 == pytest.approx(paper_overhead, abs=2)


@pytest.mark.benchmark(group="tables")
def test_model_matches_simulated_leader_message_counts(benchmark):
    """Cross-validate formula 1 against measured leader traffic in the simulator."""

    def _measure():
        measured = {}
        for protocol, groups in (("pigpaxos", 3), ("pigpaxos", 2), ("paxos", None)):
            scenario = paper_scenario(f"table1-{protocol}-r{groups}", protocol, num_nodes=9,
                                      relay_groups=groups, num_clients=20, duration=0.4)
            result = run_checked(scenario)
            counters = result.counters()
            leader_msgs = counters["node.0.messages_in"] + counters["node.0.messages_out"]
            measured[(protocol, groups)] = leader_msgs / result.completed_requests
        return measured

    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = []
    for (protocol, groups), per_request in measured.items():
        r = groups if groups is not None else 8
        rows.append([f"{protocol} r={r}", messages_at_leader(r), round(per_request, 2)])
    report(
        "table1_cross_validation",
        "Model vs simulator -- leader messages per request (9 nodes)",
        comparison_table(["configuration", "model Ml", "measured msgs/request"], rows),
    )

    # Measured counts include heartbeats and retries, so allow a tolerance band
    # around the model, and require the model's ordering to hold.
    assert measured[("pigpaxos", 2)] < measured[("pigpaxos", 3)] < measured[("paxos", None)]
    for (protocol, groups), per_request in measured.items():
        r = groups if groups is not None else 8
        assert per_request == pytest.approx(messages_at_leader(r), rel=0.35)
