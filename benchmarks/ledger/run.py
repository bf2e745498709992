#!/usr/bin/env python3
"""The repo's perf ledger: one command, two clocks, every layer.

Driver form (one workload, one JSON result on the last line)::

    python3 benchmarks/ledger/run.py --workload lan25_pig --seed 3 --seconds 10 --trace 0

Suite form (every workload, round-robin repetitions, paper-sanity check)::

    python3 benchmarks/ledger/run.py [--seed S] [--trace] [--aa] [--quick] [--json OUT]

Every repetition is a fresh child process (``rep.py``), run serially; see
``README.md`` for the measurement protocol and every metric.  This file
claims no gain: it fixes the names later changes are measured by.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

#: ``--quick``: two workloads, one repetition, simulated times divided by
#: three.  Clients start at t = 0.05 s, so a deeper cut completes nothing.
QUICK_WORKLOADS = ("lan25_pig", "single1_paxos")
QUICK_SHRINK = 3

REP_TIMEOUT_S = 120

#: Paper sanity (PigPaxos Fig. 8 and Table 1): >= 3x Paxos at 25 nodes, and
#: the leader touches 2r+2 = 8 messages per op against 2(N-1)+2 = 50.
SANITY_MIN_SPEEDUP = 3.0
SANITY_HOT_MSGS = {"lan25_pig": 8.0, "lan25_paxos": 50.0}
SANITY_HOT_TOLERANCE = 0.05


class RepetitionFailed(RuntimeError):
    """A child process died or printed no record."""


def run_rep(workload: str, seed: int, shrink: int, trace: bool) -> dict:
    spec = {"workload": workload, "seed": seed, "shrink": shrink, "trace": trace}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
        capture_output=True,
        text=True,
        env=env,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepetitionFailed(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(names: List[str], seed: int, reps: int, shrink: int) -> Dict[str, Tuple[list, dict]]:
    """Untraced repetitions round-robin across workloads, then one traced pass.

    Round-robin (repetition 1 of all, repetition 2 of all, ...) spreads a
    noisy minute on a shared host over every workload.  Repetition ``i``
    runs sub-seed ``seed * 100 + i``; the traced pass repeats sub-seed 0.
    """
    records: Dict[str, list] = {name: [] for name in names}
    for index in range(reps):
        for name in names:
            records[name].append(run_rep(name, seed * 100 + index, shrink, trace=False))
    return {name: (records[name], run_rep(name, seed * 100, shrink, trace=True)) for name in names}


def summarise(name: str, reps: List[dict], traced: dict) -> dict:
    problems = [
        f"seed {rep['seed']}: {violation}"
        for rep in (*reps, traced)
        for violation in rep["violations"]
    ]
    problems.extend(metrics.trace_problems(reps[0], traced))
    return {
        "workload": name,
        "end_to_end": metrics.end_to_end(reps, traced),
        "per_layer": metrics.per_layer(reps, traced),
        "problems": problems,
        "attempted": sum(rep["completed"] for rep in (*reps, traced)),
        "fingerprints": [rep["fingerprint"] for rep in reps],
        "host_us_per_op_reps": metrics.host_us_per_op(reps),
        "latency_samples": sum(len(rep["latencies_ms"]) for rep in reps),
        "retries": sum(rep["retries"] for rep in reps),
        "sent": sum(rep["sent"] for rep in reps),
    }


def paper_sanity(summaries: Dict[str, dict]) -> List[str]:
    """Assert the paper's headline on whichever 25-node workloads ran; returns failures."""
    failures = []
    for name, expected in SANITY_HOT_MSGS.items():
        if name not in summaries:
            continue
        hot = summaries[name]["end_to_end"]["hot_msgs_per_op"]
        print(f"paper sanity: {name} hot_msgs_per_op {hot:.2f}, expected {expected:g} within 5 %")
        if abs(hot - expected) > SANITY_HOT_TOLERANCE * expected:
            failures.append(f"paper sanity: {name} hot_msgs_per_op {hot:.2f} is not {expected:g}")
    if all(name in summaries for name in SANITY_HOT_MSGS):
        speedup = (
            summaries["lan25_pig"]["end_to_end"]["sim_ops_per_s"]
            / summaries["lan25_paxos"]["end_to_end"]["sim_ops_per_s"]
        )
        print(
            f"paper sanity: lan25_pig / lan25_paxos = {speedup:.2f}x sim_ops_per_s, "
            f"need >= {SANITY_MIN_SPEEDUP:g}"
        )
        if speedup < SANITY_MIN_SPEEDUP:
            failures.append(f"paper sanity: PigPaxos is only {speedup:.2f}x Paxos at 25 nodes")
    return failures


def print_summary(summary: dict, contract: dict, show_layers: bool) -> None:
    why = {item["name"]: item["why"] for item in contract["workloads"]}
    print(f"== {summary['workload']}: {why[summary['workload']]}")
    for spec in contract["end_to_end"]:
        note = ""
        if spec["name"] == "host_us_per_op":
            samples = summary["host_us_per_op_reps"]
            note = (
                f"  [lower quartile of {len(samples)} reps; median"
                f" {statistics.median(samples):.1f}, range {min(samples):.1f}..{max(samples):.1f}]"
            )
        elif spec["name"] in ("sim_p50_ms", "sim_p99_ms"):
            note = f"  [{summary['latency_samples']} samples]"
        elif spec["name"] == "attempts_per_op":
            note = f"  [{summary['retries']} timed-out or redirected of {summary['sent']} attempts]"
        print(
            f"  {spec['name']:<24}{summary['end_to_end'][spec['name']]:>16.4f} {spec['unit']:<12}"
            f" {spec['better']:<6} bound {spec['bound']:.0%}{note}"
        )
    if show_layers:
        for spec in contract["per_layer"]:
            value = summary["per_layer"][spec["name"]]
            print(f"  {spec['name']:<32}{value:>14.4f} {spec['unit']:<12} {spec['better']}")
    for problem in summary["problems"]:
        print(f"  PROBLEM {summary['workload']}: {problem}")


def write_trace(summary: dict, traced: dict) -> Path:
    """The layer table and the caller-layer > callee-layer edges of one traced run."""
    out = HERE / "results" / f"trace_{summary['workload']}.json"
    out.parent.mkdir(exist_ok=True)
    profile = traced["profile"]
    payload = {
        "workload": summary["workload"],
        "seed": traced["seed"],
        "fingerprint": traced["fingerprint"],
        "traced_cpu_s": traced["cpu_s"],
        "overhead_ratio": summary["per_layer"]["trace.overhead_ratio"],
        "profiled_total_s": profile["total_s"],
        "profiled_calls": profile["total_calls"],
        "layers": profile["layers"],
        "edges": profile["edges"],
        "top_functions": profile["top"],
    }
    out.write_text(json.dumps(payload, indent=1) + "\n")
    return out


def compare_aa(first: Dict[str, dict], second: Dict[str, dict], contract: dict) -> List[str]:
    """Two measurements of the same code must agree within the contract's bounds."""
    failures = []
    print("A/A: relative difference of the second suite against the first, per bound")
    for name, a in first.items():
        b = second[name]
        if a["fingerprints"] != b["fingerprints"]:
            failures.append(f"A/A: {name} fingerprints differ between the two suites")
        for spec in contract["end_to_end"]:
            before, after = a["end_to_end"][spec["name"]], b["end_to_end"][spec["name"]]
            diff = (after - before) / before
            verdict = "ok" if abs(diff) <= spec["bound"] else "EXCEEDS"
            print(f"  {name:<20}{spec['name']:<20}{diff:>+9.2%} of {spec['bound']:.0%}  {verdict}")
            if verdict != "ok":
                failures.append(f"A/A: {name} {spec['name']} moved {diff:+.2%}")
    return failures


def parse_args(argv: Optional[List[str]], contract: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [item["name"] for item in contract["workloads"]]
    parser.add_argument("--workload", choices=names, help="run one workload, driver form")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=int, default=contract["run_seconds"], help="untraced repetitions to make"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report the per-layer metrics and write results/trace_<workload>.json",
    )
    parser.add_argument("--aa", action="store_true", help="measure twice, compare within bounds")
    parser.add_argument("--quick", action="store_true", help="smoke run: shrunk, 1 rep, 2 loads")
    parser.add_argument("--json", metavar="OUT", help="also write the suite summary to OUT")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, contract)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no src/repro under {ROOT}; run from a repo checkout", file=sys.stderr)
        return 2

    if args.workload:
        names = [args.workload]
    elif args.quick:
        names = list(QUICK_WORKLOADS)
    else:
        names = [item["name"] for item in contract["workloads"]]
    shrink = QUICK_SHRINK if args.quick else 1
    # One untraced repetition per second of --seconds: workloads.py sizes each
    # at just under a second including process start.  The traced repetition
    # (cProfile costs 4-6x) comes on top.
    reps = 1 if args.quick else args.seconds

    def measured() -> Dict[str, dict]:
        raw = measure(names, args.seed, reps, shrink)
        summaries = {name: summarise(name, *raw[name]) for name in names}
        for name in names:
            print_summary(summaries[name], contract, show_layers=bool(args.trace))
            if args.trace:
                print(f"  trace written to {write_trace(summaries[name], raw[name][1])}")
        return summaries

    summaries = measured()
    failures = [
        f"{name}: {problem}" for name in names for problem in summaries[name]["problems"]
    ]
    if shrink == 1:
        failures.extend(paper_sanity(summaries))
    if args.aa:
        failures.extend(compare_aa(summaries, measured(), contract))
    for failure in failures:
        print(f"FAILED {failure}")

    attempted = sum(summary["attempted"] for summary in summaries.values())
    verdict = {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted if failures else 0,
    }
    section = "per_layer" if args.trace else "end_to_end"
    if args.workload:
        values = summaries[args.workload][section]
        verdict["metrics"] = {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in contract[section]
        }
        print(json.dumps(verdict))
    else:
        report = {
            **verdict,
            "seed": args.seed,
            "reps": reps,
            "shrink": shrink,
            "failures": failures,
            "workloads": {
                name: {key: summary[key] for key in ("end_to_end", "per_layer", "fingerprints")}
                for name, summary in summaries.items()
            },
            "claim": None,
        }
        if args.json:
            Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
        print(json.dumps(report))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
