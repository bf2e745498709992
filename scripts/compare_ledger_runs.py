"""Diff two perf-ledger suite runs: host-cost deltas, simulated columns unmoved.

Reads two ``benchmarks/ledger/run.py --json OUT`` reports, made at the same
``--seed`` (with ``--trace 1`` for the per-layer call counts) on a parent
and a change::

    python3 benchmarks/ledger/run.py --seed 1 --seconds 2 --trace 1 --json parent.json
    python3 benchmarks/ledger/run.py --seed 1 --seconds 2 --trace 1 --json change.json
    python scripts/compare_ledger_runs.py parent.json change.json

For each workload it prints ``host_calls_per_op`` and every per-layer
``*.calls_per_op`` before and after, then ``setup_s``, ``host_us_per_op``
and ``peak_rss_mb`` with their ``BENCHMARK.json`` bounds, marking
``OVER BOUND`` where the change is worse by more than the bound (a report
only: timers need alternating pairs, not one run each).  Those may move;
the control columns may not: a host-cost change must leave every
fingerprint, every ``sim_*`` metric, ``hot_msgs_per_op``, ``unavail_ms``,
``attempts_per_op``, ``sim.events_per_op``, ``net.msgs_per_op`` and
``net.bytes_per_op`` bit-identical.  Exits 1 and names each control column that differs (or a
workload only one side ran), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: End-to-end metrics a host-side change must not move, besides every ``sim_*``.
CONTROL_END_TO_END = ("hot_msgs_per_op", "unavail_ms", "attempts_per_op")
CONTROL_PER_LAYER = ("sim.events_per_op", "net.msgs_per_op", "net.bytes_per_op")
#: End-to-end metrics whose bounds are reported, never gated on.
BOUNDED_END_TO_END = ("setup_s", "host_us_per_op", "peak_rss_mb")
CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """``metric -> (better, bound)`` for every end-to-end metric of the contract."""
    with open(CONTRACT, encoding="utf-8") as handle:
        contract = json.load(handle)
    return {
        metric["name"]: (metric["better"], metric["bound"]) for metric in contract["end_to_end"]
    }


def control_columns(workload: dict) -> Iterator[Tuple[str, object]]:
    """``(column, value)`` for every deterministic column of one workload's summary."""
    yield "fingerprints", workload["fingerprints"]
    for name, value in sorted(workload["end_to_end"].items()):
        if name.startswith("sim_") or name in CONTROL_END_TO_END:
            yield name, value
    for name in CONTROL_PER_LAYER:
        yield name, workload["per_layer"].get(name)


def cost_columns(workload: dict) -> Iterator[Tuple[str, float]]:
    """``host_calls_per_op`` then each per-layer ``*.calls_per_op`` in report order."""
    yield "host_calls_per_op", workload["end_to_end"]["host_calls_per_op"]
    for name, value in workload["per_layer"].items():
        if name.endswith(".calls_per_op"):
            yield name, value


def _delta(before: float, after: float) -> str:
    if before == after:
        return "="
    if before == 0:
        return "new"
    return f"{(after - before) / before:+.2%}"


def _over_bound(before: float, after: float, better: str, bound: float) -> bool:
    if before == 0:
        return False
    worse = (after - before) / before
    return (worse if better == "lower" else -worse) > bound


def compare(parent: dict, change: dict, bounds: Dict[str, Tuple[str, float]]) -> List[str]:
    """Print the cost deltas and bounded metrics; return one line per control column that moved."""
    old, new = parent["workloads"], change["workloads"]
    moved = [f"{name}: only in {'parent' if name in old else 'change'}"
             for name in sorted(old.keys() ^ new.keys())]
    for name in (name for name in old if name in new):
        print(name)
        for column, before in cost_columns(old[name]):
            after = dict(cost_columns(new[name])).get(column, 0.0)
            print(f"  {column:<28}{before:>12.2f} -> {after:>10.2f}  {_delta(before, after)}")
        for column in BOUNDED_END_TO_END:
            before = old[name]["end_to_end"][column]
            after = new[name]["end_to_end"][column]
            better, bound = bounds[column]
            mark = "  OVER BOUND" if _over_bound(before, after, better, bound) else ""
            print(f"  {column:<28}{before:>12.4f} -> {after:>10.4f}  {_delta(before, after)}"
                  f"  bound {bound:.0%}{mark}")
        after_controls = dict(control_columns(new[name]))
        for column, before in control_columns(old[name]):
            if after_controls.get(column) != before:
                moved.append(f"{name}: {column} {before!r} -> {after_controls.get(column)!r}")
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="run.py --json report of the parent")
    parser.add_argument("change", help="run.py --json report of the change")
    args = parser.parse_args(argv)
    with open(args.parent, encoding="utf-8") as a, open(args.change, encoding="utf-8") as b:
        moved = compare(json.load(a), json.load(b), load_bounds())
    for line in moved:
        print(f"CONTROL MOVED {line}")
    print("control columns identical" if not moved else f"{len(moved)} control column(s) moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
