"""One repetition of one workload, run as a fresh child process of ``run.py``.

Usage: ``python rep.py '{"workload": ..., "seed": ..., "shrink": ..., "trace": ...}'``
with ``src/`` on ``PYTHONPATH``.  Prints one JSON record on the last line of
standard output.  Everything is measured from outside the layers: CPU time
around the public ``ScenarioRunner`` calls, counters read back from the
finished result, and (traced repetitions only) ``cProfile`` around the run.
"""

from __future__ import annotations

import json
import sys
import time

_T0 = time.process_time()  # before the repo is imported: set-up time includes the import


def _suffix_sum(counters, suffix: str) -> float:
    """Sum a replica counter over protocol prefixes (``*.relay_timeouts``)."""
    return sum(value for name, value in counters.items() if name.endswith(suffix))


def _prefix_sum(counters, prefix: str) -> float:
    return sum(value for name, value in counters.items() if name.startswith(prefix))


def _recheck(result):
    """Re-invoke the scenario's safety checkers on the finished result."""
    from repro.checkers import check_linearizability, run_epaxos_checks, run_log_checks

    cluster = result.cluster
    groups = [cluster] if cluster.num_shards == 1 else cluster.shard_views()
    violations = []
    checks = result.scenario.checks
    for group in groups:
        if "log_invariants" in checks:
            violations.extend(run_log_checks(group))
        if "epaxos_invariants" in checks:
            violations.extend(run_epaxos_checks(group))
    if "linearizability" in checks:
        violations.extend(check_linearizability(result.history))
    return violations


def measure(workload: str, seed: int, shrink: int, trace: bool):
    import resource

    from workloads import WORKLOADS

    import repro
    from repro.scenarios import ScenarioRunner
    from repro.sim.metrics import bottleneck_node, shard_summary

    scenario, window_start, window_end = WORKLOADS[workload].instantiate(seed, shrink)
    probe = ScenarioRunner(scenario).build()
    probe.start()
    setup_s = time.process_time() - _T0
    del probe

    profiler = None
    if trace:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    started = time.process_time()
    result = ScenarioRunner(scenario).run()
    cpu_s = time.process_time() - started
    if profiler is not None:
        profiler.disable()

    cluster = result.cluster
    counters = result.counters()
    completions = sorted(
        (done_at, latency)
        for client in cluster.clients
        for done_at, latency in client.stats.completions
        if window_start <= done_at <= window_end
    )
    edges = [window_start, *(done_at for done_at, _ in completions), window_end]
    hot_node, hot_traffic = bottleneck_node(counters)
    locality = counters.get("region.cross_messages", 0.0) + counters.get(
        "region.local_messages", 0.0
    )
    record = {
        "workload": workload,
        "seed": seed,
        "fingerprint": result.fingerprint(),
        "violations": [str(violation) for violation in result.violations],
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed": result.completed_requests,
        "events": result.events_processed,
        "window_s": window_end - window_start,
        "latencies_ms": [latency * 1e3 for _, latency in completions],
        # Longest stretch with fewer completions than clients: some client went
        # unserved throughout.  About one round trip when healthy, the outage
        # after a crash; far steadier across seeds than the longest single gap.
        "unavail_ms": max(
            (b - a for a, b in zip(edges, edges[scenario.num_clients :])),
            default=window_end - window_start,
        )
        * 1e3,
        "sent": sum(client.stats.sent for client in cluster.clients),
        "retries": sum(client.stats.retries for client in cluster.clients),
        "hot_msgs": hot_traffic["messages_total"],
        "hot_busy_share": cluster.nodes[hot_node].busy_time_total / result.virtual_duration,
        "msgs_sent": counters.get("net.messages_sent", 0.0),
        "bytes_sent": counters.get("net.bytes_sent", 0.0),
        "msgs_lost": counters.get("net.messages_dropped", 0.0)
        + counters.get("net.messages_undeliverable", 0.0),
        "cross_region_share": (
            counters.get("region.cross_messages", 0.0) / locality if locality else 0.0
        ),
        "relay_rounds": _suffix_sum(counters, ".relay_rounds"),
        "relay_timeouts": _suffix_sum(counters, ".relay_timeouts"),
        "commit_fallbacks": _suffix_sum(counters, ".commit_fallbacks"),
        "p2a_rounds": _suffix_sum(counters, ".p2a_rounds"),
        "round_retries": _suffix_sum(counters, ".leader_round_retries"),
        "elections": _suffix_sum(counters, ".phase1_started"),
        "batch_flushes": _prefix_sum(counters, "batch.flush."),
        "batched_cmds": counters.get("batch.commands_batched", 0.0),
        "fast_path_commits": _suffix_sum(counters, ".fast_path_commits"),
        "instances_committed": _suffix_sum(counters, ".instances_committed"),
        "recoveries": _suffix_sum(counters, ".recoveries_started"),
        "hottest_shard_share": shard_summary(counters).get("hottest_share", 1.0),
    }
    if profiler is not None:
        import layers

        package_root = repro.__path__[0] + "/"
        stats = profiler.getstats()
        record["profile"] = layers.roll_up(stats, package_root)
        record["profile"]["top"] = layers.top_functions(stats, package_root)
        # Must equal net.messages_sent, or some path bypasses the send boundary.
        record["profile"]["send_calls"] = sum(
            entry.callcount
            for entry in stats
            if getattr(entry.code, "co_qualname", None) == "SimNetwork.send"
        )
        # The checkers' own cost, outside the timed and the profiled region.
        started = time.process_time()
        rechecked = _recheck(result)
        record["checkers_cpu_s"] = time.process_time() - started
        record["violations"].extend(f"recheck: {violation}" for violation in rechecked)
    return record


if __name__ == "__main__":
    print(json.dumps(measure(**json.loads(sys.argv[1]))))
