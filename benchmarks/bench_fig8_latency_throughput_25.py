"""Figure 8: latency vs throughput for Paxos, EPaxos and PigPaxos on 25 nodes.

Paper result: EPaxos saturates around 1,000 req/s, Paxos around 2,000 req/s,
PigPaxos (3 relay groups) reaches ~7,000 req/s; PigPaxos pays ~30% higher
latency than Paxos at low load but keeps latency low far beyond Paxos'
saturation point.
"""

from __future__ import annotations

import pytest

from _common import LATENCY_SWEEP_CLIENTS, chart, client_sweep, comparison_table, paper_scenario, report

PAPER_SATURATION = {"epaxos": 1000, "paxos": 2000, "pigpaxos": 7000}


def _sweep_protocol(protocol: str):
    scenario = paper_scenario(
        f"fig8-{protocol}",
        protocol,
        num_nodes=25,
        relay_groups=3 if protocol == "pigpaxos" else None,
    )
    return client_sweep(scenario, LATENCY_SWEEP_CLIENTS)


def _measure():
    return {protocol: _sweep_protocol(protocol) for protocol in ("paxos", "epaxos", "pigpaxos")}


@pytest.mark.benchmark(group="fig8")
def test_fig8_latency_throughput_25_nodes(benchmark):
    sweeps = benchmark.pedantic(_measure, rounds=1, iterations=1)

    rows = []
    for protocol, sweep in sweeps.items():
        best = sweep.best_run()
        low_load = sweep.runs[0]
        rows.append([
            protocol,
            PAPER_SATURATION[protocol],
            round(best.throughput),
            round(low_load.latency_mean_ms, 2),
            round(best.latency_mean_ms, 2),
        ])
    lines = comparison_table(
        ["protocol", "paper max req/s", "measured max req/s", "low-load lat ms", "lat at max ms"], rows
    )
    lines += [""] + chart(
        {p: s.latency_throughput_series() for p, s in sweeps.items()},
        x_label="throughput (req/s)",
        y_label="mean latency (ms)",
    )
    report("fig8_latency_throughput_25", "Figure 8 -- 25-node latency vs throughput", lines)

    paxos_max = sweeps["paxos"].max_throughput()
    pig_max = sweeps["pigpaxos"].max_throughput()
    epaxos_max = sweeps["epaxos"].max_throughput()
    # Paper shape: PigPaxos > 3x Paxos; EPaxos below Paxos.
    assert pig_max > 3.0 * paxos_max
    assert epaxos_max < paxos_max
    # PigPaxos pays a modest latency premium at low load (extra relay hop).
    assert sweeps["pigpaxos"].runs[0].latency_mean > sweeps["paxos"].runs[0].latency_mean
    assert sweeps["pigpaxos"].runs[0].latency_mean < 3.0 * sweeps["paxos"].runs[0].latency_mean
