"""Tests for the measurement side of the harness: result records, tables,
``ScenarioResult.stats()`` -- the one place completions become numbers -- and
the paper scorecard's scoring (``benchmarks/paper.py``)."""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import Scenario, WorkloadSpec, run_scenario
from repro.bench.plots import format_table
from repro.bench.results import RunResult
from repro.errors import ConfigurationError
from repro.scenarios import ScenarioEvent
from repro.sim.metrics import Histogram


def _load_paper():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "paper.py"
    spec = importlib.util.spec_from_file_location("paper", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


paper = _load_paper()


def _result(throughput: float, latency: float = 0.002, clients: int = 10) -> RunResult:
    return RunResult(
        protocol="paxos",
        num_nodes=5,
        num_clients=clients,
        duration=1.0,
        measured_window=0.8,
        completed_requests=int(throughput * 0.8),
        throughput=throughput,
        latency_mean=latency,
        latency_p50=latency,
        latency_p95=latency * 1.5,
        latency_p99=latency * 2,
        latency_max=latency * 3,
    )


class TestResults:
    def test_run_result_serialization(self):
        result = _result(1000.0)
        data = result.to_dict()
        assert data["throughput"] == 1000.0
        assert data["latency_p99_ms"] == pytest.approx(4.0)
        json.dumps(data)  # JSON-serialisable


TINY = Scenario(
    name="stats-probe",
    protocol="paxos",
    num_nodes=3,
    num_clients=4,
    duration=1.0,
    seed=2,
    workload=WorkloadSpec(num_keys=20, value_size=8, read_ratio=0.5),
)


@pytest.fixture(scope="module")
def tiny_result():
    return run_scenario(TINY)


def _completions(result):
    return sorted(pair for client in result.cluster.clients for pair in client.stats.completions)


class TestStats:
    def test_stats_produces_throughput_and_latency(self, tiny_result):
        stats = tiny_result.stats(start=0.1, end=0.95)
        assert stats.completed_requests > 0
        assert stats.throughput == stats.completed_requests / stats.measured_window
        assert 0 < stats.latency_mean < 0.1
        assert stats.latency_p50 <= stats.latency_p95 <= stats.latency_p99 <= stats.latency_max
        assert (stats.protocol, stats.num_nodes, stats.num_clients) == ("paxos", 3, 4)

    def test_default_window_is_the_whole_run(self, tiny_result):
        stats = tiny_result.stats()
        assert stats.completed_requests == tiny_result.completed_requests
        assert stats.measured_window == stats.duration == TINY.duration

    def test_window_edges_are_inclusive(self, tiny_result):
        times = [completed_at for completed_at, _ in _completions(tiny_result)]
        first, last = times[10], times[20]
        assert len(set(times[9:22])) == 13  # distinct, so the counts below are exact
        assert tiny_result.stats(start=first, end=last).completed_requests == 11
        assert tiny_result.stats(start=math.nextafter(first, 1.0), end=last).completed_requests == 10
        assert tiny_result.stats(start=first, end=math.nextafter(last, 0.0)).completed_requests == 10

    def test_window_without_completions_yields_zeros(self, tiny_result):
        stats = tiny_result.stats(end=0.01)  # clients start at t=0.05
        assert stats.completed_requests == 0
        assert stats.throughput == 0.0
        assert (stats.latency_mean, stats.latency_p50, stats.latency_p99, stats.latency_max) == (0, 0, 0, 0)

    @pytest.mark.parametrize("window", [(0.5, 0.5), (0.6, 0.2), (-0.1, 0.5)])
    def test_empty_or_inverted_window_rejected(self, tiny_result, window):
        with pytest.raises(ConfigurationError):
            tiny_result.stats(*window)

    def test_percentiles_equal_histogram_on_the_same_samples(self, tiny_result):
        histogram = Histogram("expected")
        for completed_at, latency in _completions(tiny_result):
            if 0.2 <= completed_at <= 0.9:
                histogram.observe(latency)
        stats = tiny_result.stats(start=0.2, end=0.9)
        assert stats.completed_requests == histogram.count
        assert stats.latency_p50 == histogram.percentile(50)
        assert stats.latency_p95 == histogram.percentile(95)
        assert stats.latency_p99 == histogram.percentile(99)
        assert stats.latency_max == histogram.max

    def test_rate_series_covers_run_and_sums_to_completed(self, tiny_result):
        series = tiny_result.completion_rates(interval=0.25)
        assert [start for start, _ in series] == [0.0, 0.25, 0.5, 0.75]
        assert sum(rate * 0.25 for _, rate in series) == tiny_result.completed_requests
        assert series[-1][1] > 0

    def test_measuring_does_not_change_the_fingerprint(self, tiny_result):
        before = tiny_result.fingerprint()
        tiny_result.stats(start=0.3)
        tiny_result.completion_rates(interval=0.1)
        assert tiny_result.fingerprint() == before
        assert run_scenario(TINY).fingerprint() == before

    def test_same_seed_reproducible(self, tiny_result):
        assert run_scenario(TINY).stats(start=0.1).throughput == tiny_result.stats(start=0.1).throughput

    def test_fault_events_flow_through(self):
        crashed = replace(TINY, duration=0.4, events=(ScenarioEvent.crash(0.1, 2),))
        result = run_scenario(crashed)
        assert result.events_fired == ["t=0.100 crash"]
        assert result.stats(start=0.1).completed_requests > 0  # majority still alive

    def test_client_sweep_is_a_replace_loop(self):
        sweep = [
            run_scenario(replace(TINY, duration=0.3, num_clients=clients)).stats(start=0.1)
            for clients in (1, 8)
        ]
        assert [run.num_clients for run in sweep] == [1, 8]
        assert sweep[1].throughput > sweep[0].throughput

    def test_equivalence_pin_with_the_deleted_bench_harness(self):
        """9-node PigPaxos r=2, paper workload, seed 42: numbers recorded from
        the second harness (``repro.bench``'s runner, warmup=0.15,
        cooldown=0.05) at commit 9f5c132, the last one that had it.  Same
        window, same completions, same percentile rule."""
        pinned = Scenario(name="pin", protocol="pigpaxos", num_nodes=9, relay_groups=2,
                          num_clients=20, duration=0.5, seed=42,
                          workload=WorkloadSpec.paper_default())
        result = run_scenario(pinned)
        stats = result.stats(start=0.15, end=0.5 - 0.05)
        assert result.ok
        assert stats.completed_requests == 2250
        assert stats.throughput == 7499.999999999999
        assert stats.latency_p50 == 0.002664697293207202
        assert stats.latency_p95 == 0.00293584481592363
        assert stats.latency_p99 == 0.0030632346813362866
        assert stats.latency_max == 0.0033526088287508804
        assert stats.client_retries == 0


class TestPlots:
    def test_format_table_aligns_columns(self):
        table = format_table(["name", "value"], [["paxos", 2000.0], ["pigpaxos", 7000.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "paxos" in lines[2] and "pigpaxos" in lines[3]


def _reading(violations: int = 0):
    window = _result(1000.0)
    return paper.Reading(window=window, completed=800, counters={}, rates=[], violations=violations)


HELD = paper.Claim("held", "Table 1", "Ml, N=25, r=2", "6", lambda _: 6.0, paper.Bound("±", 6),
                   "exact")


class TestScorecard:
    def test_a_breached_bound_fails_its_row_and_the_exit_code(self, tmp_path):
        assert paper.run([HELD], tmp_path) == 0
        breached = replace(HELD, id="breached", bound=paper.Bound(">", 6))
        assert paper.run([HELD, breached], tmp_path) == 1
        rows = json.loads((tmp_path / "SCORECARD.json").read_text(encoding="utf-8"))["rows"]
        assert [(row["id"], row["pass"], row["margin"]) for row in rows] == [
            ("held", True, 0.0), ("breached", False, 0.0)]
        card = (tmp_path / "SCORECARD.md").read_text(encoding="utf-8")
        assert "1 of 2 rows pass." in card
        assert "| breached | Table 1 | Ml, N=25, r=2 | 6 | 6 | > 6 | +0 | **FAIL** |" in card

    def test_a_cell_with_violations_fails_a_row_its_bound_holds(self, tmp_path, monkeypatch):
        monkeypatch.setattr(paper, "read", lambda scenario: _reading(violations=3))
        claim = replace(HELD, metric=lambda s: s["run"][0].window.throughput,
                        bound=paper.Bound(">", 0.0), cells={"run": (TINY,)})
        assert paper.run([claim], tmp_path) == 1
        assert "| 1000 | > 0 | +1e+03 | **FAIL** (3 violations) |" in (
            tmp_path / "SCORECARD.md").read_text(encoding="utf-8")

    def test_a_cell_read_by_several_rows_runs_once(self, monkeypatch):
        reads = []
        monkeypatch.setattr(paper, "read", lambda scenario: reads.append(scenario) or _reading())
        claim = replace(HELD, metric=lambda s: 1.0, cells={"run": (TINY,)})
        rows, readings = paper.score([claim, replace(claim, id="again")])
        assert reads == [TINY] and list(readings) == [TINY.name]
        assert [row["cells"] for row in rows] == [[TINY.name], [TINY.name]]

    @pytest.mark.parametrize("bound, inside, outside", [
        (paper.Bound(">", 1.0), 1.5, 1.0),
        (paper.Bound(">=", 1.0), 1.0, 0.5),
        (paper.Bound("<", 1.0), 0.5, 1.0),
        (paper.Bound("<=", 1.0), 1.0, 1.5),
        (paper.Bound("±", 3.0, 0.5), 3.5, 3.6),
        (paper.Bound("±", 3.0), 3.0, math.nan),
    ])
    def test_bounds(self, bound, inside, outside):
        assert bound.holds(inside) and bound.margin(inside) >= 0
        assert not bound.holds(outside)

    def test_unknown_bound_op_rejected(self):
        with pytest.raises(ValueError):
            paper.Bound("~", 1.0)

    def test_every_cell_name_names_one_scenario(self):
        by_name = {}
        for claim in paper.CLAIMS:
            for scenarios in claim.cells.values():
                for scenario in scenarios:
                    assert by_name.setdefault(scenario.name, scenario) == scenario
        assert len({claim.id for claim in paper.CLAIMS}) == len(paper.CLAIMS)
