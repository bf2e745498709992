"""Turn the repetition records of one workload into named metrics.

Names, units, directions and regression bounds are declared once, in
``BENCHMARK.json``; this module only says how each value is computed.
``README.md`` documents every metric.

One run makes several untraced repetitions, each a fresh process with its
own sub-seed, plus one traced repetition that repeats the first sub-seed
under ``cProfile``.  Simulated-clock metrics are the median over the
untraced repetitions, except the latency percentiles, which pool every
repetition's window so that p99 has its 1 000 samples; they depend on
``--seed`` and the repetition count only.  Host-clock metrics are order
statistics over the repetitions; layer counts are ratios of sums.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Sequence

from layers import LAYERS, UNATTRIBUTED


def lower_quartile(values: Sequence[float]) -> float:
    """First quartile; host noise only ever adds time, so the low side is the signal."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def _total(reps: List[dict], field: str) -> float:
    return sum(rep[field] for rep in reps)


def _ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def host_us_per_op(reps: List[dict]) -> List[float]:
    return [rep["cpu_s"] / rep["completed"] * 1e6 for rep in reps]


def _median(reps: List[dict], per_rep: Callable[[dict], float]) -> float:
    return statistics.median(per_rep(rep) for rep in reps)


def end_to_end(reps: List[dict], traced: dict) -> Dict[str, float]:
    """The user-visible metrics: four on the host clock, six on the simulated one.

    Simulated-clock values are medians over the sub-seeds, so one repetition
    whose election ran a timeout quantum longer does not drag the workload's
    number with it.
    """
    # "inclusive" interpolates linearly between the pooled samples, as the
    # repo's own Histogram.percentile does.
    percentiles = statistics.quantiles(
        (sample for rep in reps for sample in rep["latencies_ms"]), n=100, method="inclusive"
    )
    return {
        "setup_s": _median(reps, lambda rep: rep["setup_s"]),
        "host_us_per_op": lower_quartile(host_us_per_op(reps)),
        "host_calls_per_op": traced["profile"]["total_calls"] / traced["completed"],
        "peak_rss_mb": _median(reps, lambda rep: rep["peak_rss_mb"]),
        "sim_ops_per_s": _median(reps, lambda rep: len(rep["latencies_ms"]) / rep["window_s"]),
        "sim_p50_ms": percentiles[49],
        "sim_p99_ms": percentiles[98],
        "hot_msgs_per_op": _median(reps, lambda rep: rep["hot_msgs"] / rep["completed"]),
        "unavail_ms": _median(reps, lambda rep: rep["unavail_ms"]),
        "attempts_per_op": _median(reps, lambda rep: 1.0 + rep["retries"] / rep["completed"]),
    }


def per_layer(reps: List[dict], traced: dict) -> Dict[str, float]:
    """Layer metrics: profiled time and calls, then exact counts from the counters."""
    profile = traced["profile"]
    host = lower_quartile(host_us_per_op(reps))
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        bucket = profile["layers"][layer]
        metrics[f"{layer}.self_us_per_op"] = bucket["self_s"] / profile["total_s"] * host
        metrics[f"{layer}.calls_per_op"] = bucket["calls"] / traced["completed"]
    metrics["trace.overhead_ratio"] = traced["cpu_s"] / reps[0]["cpu_s"]
    metrics["trace.unattributed_share"] = (
        profile["layers"][UNATTRIBUTED]["self_s"] / profile["total_s"]
    )

    completed = _total(reps, "completed")
    sent = _total(reps, "msgs_sent")
    metrics.update(
        {
            "sim.events_per_op": _total(reps, "events") / completed,
            "sim.events_per_cpu_s": _total(reps, "events") / _total(reps, "cpu_s"),
            "net.msgs_per_op": sent / completed,
            "net.bytes_per_op": _total(reps, "bytes_sent") / completed,
            "net.drop_share": _ratio(_total(reps, "msgs_lost"), sent),
            "net.cross_region_share": statistics.fmean(
                rep["cross_region_share"] for rep in reps
            ),
            "cluster.hot_cpu_busy_share": statistics.fmean(
                rep["hot_busy_share"] for rep in reps
            ),
            "overlay.relay_rounds_per_op": _total(reps, "relay_rounds") / completed,
            "overlay.relay_timeout_share": _ratio(
                _total(reps, "relay_timeouts"), _total(reps, "relay_rounds")
            ),
            "overlay.commit_fallbacks_per_op": _total(reps, "commit_fallbacks") / completed,
            "paxos.rounds_per_op": _total(reps, "p2a_rounds") / completed,
            "paxos.round_retries_per_op": _total(reps, "round_retries") / completed,
            "paxos.elections": _total(reps, "elections") / len(reps),
            "protocol.cmds_per_batch": _ratio(
                _total(reps, "batched_cmds"), _total(reps, "batch_flushes"), empty=1.0
            ),
            "epaxos.fast_path_share": _ratio(
                _total(reps, "fast_path_commits"), _total(reps, "instances_committed")
            ),
            "epaxos.recoveries_per_kop": _total(reps, "recoveries") / completed * 1e3,
            "workload.retry_share": _total(reps, "retries") / _total(reps, "sent"),
            "shard.hottest_share": statistics.fmean(
                rep["hottest_shard_share"] for rep in reps
            ),
            "checkers.cpu_s": traced["checkers_cpu_s"],
            "checkers.us_per_op": traced["checkers_cpu_s"] / traced["completed"] * 1e6,
        }
    )
    return metrics


def trace_problems(rep: dict, traced: dict) -> List[str]:
    """The traced repetition's self-checks; an empty list means it can be trusted."""
    profile = traced["profile"]
    problems = []
    if traced["fingerprint"] != rep["fingerprint"]:
        problems.append(
            "fingerprint differs between the traced and the untraced repetition of one seed"
        )
    layer_sum = sum(bucket["self_s"] for bucket in profile["layers"].values())
    if abs(layer_sum - profile["total_s"]) > 1e-6 * profile["total_s"]:
        problems.append(
            f"layer self times sum to {layer_sum:.6f}s, profile total is {profile['total_s']:.6f}s"
        )
    unattributed = profile["layers"][UNATTRIBUTED]["self_s"] / profile["total_s"]
    if unattributed >= 0.2:
        problems.append(f"trace.unattributed_share is {unattributed:.3f}, must be < 0.2")
    if profile["send_calls"] != traced["msgs_sent"]:
        problems.append(
            f"profile saw {profile['send_calls']} SimNetwork.send calls, "
            f"net.messages_sent counted {traced['msgs_sent']:.0f}: a path bypasses the boundary"
        )
    return problems
