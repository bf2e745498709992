"""Figure 10: latency vs throughput on a 5-node cluster (2 relay groups).

Paper result: even at the smallest sensible cluster size PigPaxos scales to
higher throughput than Paxos (the leader talks to 2 relays instead of 4
followers), Paxos keeps a latency edge for longer, and EPaxos suffers from
conflicts on the 1000-key workload.
"""

from __future__ import annotations

import pytest

from _common import (
    SMALL_CLUSTER_SWEEP_CLIENTS, chart, client_sweep, comparison_table, paper_scenario, report,
)

PAPER_SATURATION = {"epaxos": 2800, "paxos": 7000, "pigpaxos": 9500}


def _measure():
    sweeps = {}
    for protocol in ("paxos", "epaxos", "pigpaxos"):
        scenario = paper_scenario(
            f"fig10-{protocol}",
            protocol,
            num_nodes=5,
            relay_groups=2 if protocol == "pigpaxos" else None,
        )
        sweeps[protocol] = client_sweep(scenario, SMALL_CLUSTER_SWEEP_CLIENTS)
    return sweeps


@pytest.mark.benchmark(group="fig10")
def test_fig10_five_node_cluster(benchmark):
    sweeps = benchmark.pedantic(_measure, rounds=1, iterations=1)

    rows = [
        [protocol, PAPER_SATURATION[protocol], round(sweep.max_throughput()),
         round(sweep.runs[0].latency_mean_ms, 2)]
        for protocol, sweep in sweeps.items()
    ]
    lines = comparison_table(["protocol", "paper max req/s", "measured max req/s", "low-load lat ms"], rows)
    lines += [""] + chart(
        {p: s.latency_throughput_series() for p, s in sweeps.items()},
        x_label="throughput (req/s)", y_label="mean latency (ms)",
    )
    report("fig10_small_cluster", "Figure 10 -- 5-node latency vs throughput", lines)

    assert sweeps["pigpaxos"].max_throughput() > sweeps["paxos"].max_throughput()
    assert sweeps["epaxos"].max_throughput() < sweeps["paxos"].max_throughput()
    # Paxos keeps the latency edge at low load in small clusters.
    assert sweeps["paxos"].runs[0].latency_mean < sweeps["pigpaxos"].runs[0].latency_mean
