"""Figure 7: maximum throughput vs number of relay groups (25-node PigPaxos).

Paper result: throughput *decreases* as the number of relay groups grows;
2 relay groups is best (~8-10k req/s on the authors' testbed) and the
"obvious" sqrt(N)=5 grouping performs markedly worse.
"""

from __future__ import annotations

import pytest

from _common import MAX_THROUGHPUT_CLIENTS, client_sweep, comparison_table, paper_scenario, report

RELAY_GROUP_COUNTS = (2, 3, 4, 5, 6)
PAPER_MAX_THROUGHPUT = {2: 9000, 3: 7000, 4: 6000, 5: 5500, 6: 5000}  # approximate req/s read off Fig. 7


def _measure() -> dict:
    results = {}
    for groups in RELAY_GROUP_COUNTS:
        scenario = paper_scenario(f"fig7-r{groups}", "pigpaxos", num_nodes=25, relay_groups=groups)
        results[groups] = client_sweep(scenario, MAX_THROUGHPUT_CLIENTS).max_throughput()
    return results


@pytest.mark.benchmark(group="fig7")
def test_fig7_max_throughput_vs_relay_groups(benchmark):
    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)

    rows = [
        [groups, PAPER_MAX_THROUGHPUT[groups], round(measured[groups]),
         round(measured[groups] / measured[RELAY_GROUP_COUNTS[0]], 2)]
        for groups in RELAY_GROUP_COUNTS
    ]
    report(
        "fig7_relay_groups",
        "Figure 7 -- 25-node PigPaxos max throughput vs relay groups",
        comparison_table(
            ["relay groups", "paper req/s (approx)", "measured req/s", "vs 2 groups"], rows
        ),
    )

    # Shape assertions from the paper: 2 groups is the best configuration and
    # throughput declines monotonically (within noise) as groups are added.
    assert measured[2] == max(measured.values())
    assert measured[2] > 1.5 * measured[6]
    assert measured[3] > measured[5]
