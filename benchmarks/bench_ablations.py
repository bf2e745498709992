"""Ablation benchmarks for the PigPaxos design choices called out in DESIGN.md.

* Random relay rotation vs fixed relays (the paper argues rotation prevents
  relay hotspots).
* Relay timeout sensitivity (the tight timeout bounds the damage of a slow
  follower).
* Partial (threshold) response collection vs waiting for the whole group
  (Section 4.2) under a sluggish follower.
"""

from __future__ import annotations

import pytest

from _common import comparison_table, measure, paper_scenario, report
from repro.scenarios import ScenarioEvent

NINE_NODE_CLIENTS = 120
#: Node 8 answers 50x slower from the first instant of the run.
SLUGGISH_FOLLOWER = (ScenarioEvent.sluggish(0.0, 8, 50.0),)


def _run(config_overrides, events=()):
    name = "ablation-" + "-".join(f"{k}={v}" for k, v in config_overrides.items())
    return measure(paper_scenario(name, "pigpaxos", num_nodes=9, num_clients=NINE_NODE_CLIENTS,
                                  config_overrides=config_overrides, events=events))


@pytest.mark.benchmark(group="ablations")
def test_ablation_relay_rotation_vs_fixed_relays(benchmark):
    def _measure():
        rotating = _run({"num_relay_groups": 2, "fixed_relays": False})
        fixed = _run({"num_relay_groups": 2, "fixed_relays": True})
        return rotating, fixed

    rotating, fixed = benchmark.pedantic(_measure, rounds=1, iterations=1)
    report(
        "ablation_fixed_relays",
        "Ablation -- random relay rotation vs fixed relays (9 nodes, 2 groups)",
        comparison_table(
            ["variant", "req/s", "mean lat ms", "p99 lat ms"],
            [["rotating relays", round(rotating.throughput), round(rotating.latency_mean_ms, 2),
              round(rotating.latency_p99_ms, 2)],
             ["fixed relays", round(fixed.throughput), round(fixed.latency_mean_ms, 2),
              round(fixed.latency_p99_ms, 2)]],
        ),
    )
    # Fixed relays turn two followers into permanent hotspots: throughput drops
    # and/or tail latency grows relative to random rotation.
    assert rotating.throughput >= 0.95 * fixed.throughput
    assert rotating.latency_p99 <= fixed.latency_p99 * 1.05 or rotating.throughput > fixed.throughput


@pytest.mark.benchmark(group="ablations")
def test_ablation_relay_timeout_with_sluggish_follower(benchmark):
    def _measure():
        tight = _run({"num_relay_groups": 2, "relay_timeout": 0.01, "leader_retry_timeout": 0.1},
                     events=SLUGGISH_FOLLOWER)
        loose = _run({"num_relay_groups": 2, "relay_timeout": 0.2, "leader_retry_timeout": 0.5},
                     events=SLUGGISH_FOLLOWER)
        return tight, loose

    tight, loose = benchmark.pedantic(_measure, rounds=1, iterations=1)
    report(
        "ablation_relay_timeout",
        "Ablation -- relay timeout under one sluggish follower (9 nodes)",
        comparison_table(
            ["relay timeout", "req/s", "mean lat ms", "p99 lat ms"],
            [["10 ms (tight)", round(tight.throughput), round(tight.latency_mean_ms, 2),
              round(tight.latency_p99_ms, 2)],
             ["200 ms (loose)", round(loose.throughput), round(loose.latency_mean_ms, 2),
              round(loose.latency_p99_ms, 2)]],
        ),
    )
    # Progress must continue in both cases (the leader only needs a majority).
    assert tight.throughput > 0 and loose.throughput > 0


@pytest.mark.benchmark(group="ablations")
def test_ablation_partial_response_collection(benchmark):
    def _measure():
        wait_all = _run({"num_relay_groups": 2}, events=SLUGGISH_FOLLOWER)
        threshold = _run({"num_relay_groups": 2, "group_response_threshold": 0.75},
                         events=SLUGGISH_FOLLOWER)
        return wait_all, threshold

    wait_all, threshold = benchmark.pedantic(_measure, rounds=1, iterations=1)
    report(
        "ablation_partial_responses",
        "Ablation -- partial response collection with a sluggish group member (9 nodes)",
        comparison_table(
            ["variant", "req/s", "mean lat ms", "p99 lat ms"],
            [["wait for whole group", round(wait_all.throughput), round(wait_all.latency_mean_ms, 2),
              round(wait_all.latency_p99_ms, 2)],
             ["threshold 75%", round(threshold.throughput), round(threshold.latency_mean_ms, 2),
              round(threshold.latency_p99_ms, 2)]],
        ),
    )
    # Threshold collection should not hurt, and typically trims tail latency
    # because the relay stops waiting for the sluggish member.
    assert threshold.throughput > 0.8 * wait_all.throughput
