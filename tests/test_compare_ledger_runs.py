"""scripts/compare_ledger_runs.py: host cost may move, simulated columns may not."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_ledger_runs.py"
_spec = importlib.util.spec_from_file_location("compare_ledger_runs", _SCRIPT)
compare_ledger_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_ledger_runs)

#: The shape of one workload in a ``run.py --json`` report, trimmed.
_WORKLOAD = {
    "end_to_end": {
        "setup_s": 0.13,
        "host_us_per_op": 1961.3,
        "host_calls_per_op": 5472.23,
        "peak_rss_mb": 35.4,
        "sim_ops_per_s": 225.0,
        "sim_p50_ms": 69.42164202931022,
        "sim_p99_ms": 71.32250351857752,
        "hot_msgs_per_op": 8.436386356573086,
        "unavail_ms": 71.45898248972776,
        "attempts_per_op": 1.0,
    },
    "per_layer": {
        "sim.self_us_per_op": 376.1,
        "sim.calls_per_op": 681.34,
        "paxos.calls_per_op": 786.98,
        "sim.events_per_op": 516.7239185750636,
        "net.msgs_per_op": 172.7824427480916,
        "net.bytes_per_op": 14563.530534351145,
        "net.drop_share": 0.0,
    },
    "fingerprints": ["65e984a4", "ac8eb05f"],
}


def _report(**workloads):
    return {"seed": 1, "workloads": workloads}


def _run(tmp_path, parent, change):
    paths = []
    for name, report in (("parent.json", parent), ("change.json", change)):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        paths.append(str(path))
    return compare_ledger_runs.main(paths)


def test_host_cost_may_move_when_the_control_columns_do_not(tmp_path, capsys):
    change = copy.deepcopy(_WORKLOAD)
    change["end_to_end"]["host_calls_per_op"] = 4838.67
    change["end_to_end"]["host_us_per_op"] = 1700.0  # a timer: not a control column
    change["per_layer"]["paxos.calls_per_op"] = 514.47
    change["per_layer"]["net.drop_share"] = 0.5  # not a control column either
    assert _run(tmp_path, _report(planet81_pig=_WORKLOAD), _report(planet81_pig=change)) == 0
    out = capsys.readouterr().out
    assert "host_calls_per_op" in out and "-11.58%" in out
    assert "paxos.calls_per_op" in out and "-34.63%" in out
    assert "control columns identical" in out


def test_bounded_end_to_end_metrics_are_reported_against_the_contract(tmp_path, capsys):
    """setup_s, host_us_per_op and peak_rss_mb print with their BENCHMARK.json
    bound; one worse by more than it is marked, and the exit code ignores it."""
    change = copy.deepcopy(_WORKLOAD)
    change["end_to_end"]["setup_s"] = 0.15  # +15 %: inside its 25 % bound
    change["end_to_end"]["host_us_per_op"] = 2500.0  # +27 %: over its 25 % bound
    change["end_to_end"]["peak_rss_mb"] = 30.0  # better
    assert _run(tmp_path, _report(planet81_pig=_WORKLOAD), _report(planet81_pig=change)) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  ")}
    assert "+15.38%" in lines["setup_s"] and "bound 25%" in lines["setup_s"]
    assert "OVER BOUND" not in lines["setup_s"]
    assert "+27.47%" in lines["host_us_per_op"] and lines["host_us_per_op"].endswith("OVER BOUND")
    assert "-15.25%" in lines["peak_rss_mb"] and "bound 5%" in lines["peak_rss_mb"]
    assert "OVER BOUND" not in lines["peak_rss_mb"]


@pytest.mark.parametrize(
    "section, column, value",
    [
        ("end_to_end", "sim_ops_per_s", 224.0),
        ("end_to_end", "sim_p99_ms", 71.32250351857753),
        ("end_to_end", "hot_msgs_per_op", 8.5),
        ("end_to_end", "unavail_ms", 71.0),
        ("end_to_end", "attempts_per_op", 1.01),
        ("per_layer", "sim.events_per_op", 517.0),
        ("per_layer", "net.msgs_per_op", 172.0),
        ("per_layer", "net.bytes_per_op", 14564.0),
        (None, "fingerprints", ["65e984a4", "00000000"]),
    ],
)
def test_a_moved_control_column_fails(tmp_path, capsys, section, column, value):
    change = copy.deepcopy(_WORKLOAD)
    (change[section] if section else change)[column] = value
    assert _run(tmp_path, _report(planet81_pig=_WORKLOAD), _report(planet81_pig=change)) == 1
    moved = [line for line in capsys.readouterr().out.splitlines() if "CONTROL MOVED" in line]
    assert len(moved) == 1 and f"planet81_pig: {column} " in moved[0]


def test_a_workload_only_one_side_ran_fails(tmp_path, capsys):
    parent = _report(planet81_pig=_WORKLOAD, lan25_pig=_WORKLOAD)
    assert _run(tmp_path, parent, _report(planet81_pig=_WORKLOAD)) == 1
    assert "lan25_pig: only in parent" in capsys.readouterr().out
