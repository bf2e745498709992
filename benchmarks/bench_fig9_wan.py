"""Figure 9: latency vs throughput on a 15-node WAN cluster (Virginia,
California, Oregon), Paxos vs PigPaxos with region-aligned relay groups.

Paper result: at low load the cross-region round trip dominates and the two
protocols are indistinguishable (~60-70 ms); at high load PigPaxos sustains
much higher throughput while keeping latency near the WAN floor.
"""

from __future__ import annotations

import pytest

from _common import (
    BASE_DURATION, WAN_SWEEP_CLIENTS, chart, client_sweep, comparison_table, paper_scenario, report,
)

PAPER_SATURATION = {"paxos": 2000, "pigpaxos": 5500}


def _measure():
    sweeps = {}
    for protocol in ("paxos", "pigpaxos"):
        scenario = paper_scenario(
            f"fig9-{protocol}",
            protocol,
            num_nodes=15,
            wan=True,
            use_region_groups=(protocol == "pigpaxos"),
            duration=max(BASE_DURATION, 1.0),
        )
        sweeps[protocol] = client_sweep(scenario, WAN_SWEEP_CLIENTS)
    return sweeps


@pytest.mark.benchmark(group="fig9")
def test_fig9_wan_latency_throughput(benchmark):
    sweeps = benchmark.pedantic(_measure, rounds=1, iterations=1)

    rows = []
    for protocol, sweep in sweeps.items():
        rows.append([
            protocol,
            PAPER_SATURATION[protocol],
            round(sweep.max_throughput()),
            round(sweep.runs[0].latency_mean_ms, 1),
            round(sweep.best_run().latency_mean_ms, 1),
        ])
    lines = comparison_table(
        ["protocol", "paper max req/s", "measured max req/s", "low-load lat ms", "lat at max ms"], rows
    )
    lines += [""] + chart(
        {p: s.latency_throughput_series() for p, s in sweeps.items()},
        x_label="throughput (req/s)", y_label="mean latency (ms)",
    )
    report("fig9_wan", "Figure 9 -- 15-node WAN latency vs throughput", lines)

    paxos, pig = sweeps["paxos"], sweeps["pigpaxos"]
    # Low load: cross-region RTT dominates; latencies within ~25% of each other.
    assert abs(pig.runs[0].latency_mean - paxos.runs[0].latency_mean) < 0.25 * paxos.runs[0].latency_mean
    # High load: PigPaxos sustains clearly higher throughput.
    assert pig.max_throughput() > 1.3 * paxos.max_throughput()
