"""Smoke test of the perf ledger: ``--quick`` end to end, names against the contract."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def _names(section: str) -> list:
    return [item["name"] for item in CONTRACT[section]]


def test_quick_suite_emits_every_metric(tmp_path):
    out = tmp_path / "ledger.json"
    proc = _run("--quick", "--json", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.splitlines()[-1]
    report = json.loads(last)
    assert last.endswith('"claim": null}')
    assert report == json.loads(out.read_text())
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    assert len(report["workloads"]) == 2
    for name, result in report["workloads"].items():
        assert name in _names("workloads")
        assert list(result["end_to_end"]) == _names("end_to_end")
        assert list(result["per_layer"]) == _names("per_layer")
        assert all(value > 0 for value in result["end_to_end"].values()), result["end_to_end"]


def test_driver_form_prints_the_contract_line():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "single1_paxos", "--quick", "--seed", "5", "--trace", trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == _names(section)
        units = {item["name"]: item["unit"] for item in CONTRACT[section]}
        assert {name: value["unit"] for name, value in result["metrics"].items()} == units


def test_contract_names_match_the_code():
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    assert {name: workload.why for name, workload in WORKLOADS.items()} == {
        item["name"]: item["why"] for item in CONTRACT["workloads"]
    }
    names = [*_names("workloads"), *_names("end_to_end"), *_names("per_layer")]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in _names("end_to_end")
    assert CONTRACT["paths"] == ["benchmarks/ledger"]


def test_files_are_ruff_clean():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed here")
    proc = subprocess.run([ruff, "check", str(HERE)], capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout
