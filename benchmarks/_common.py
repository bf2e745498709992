"""Shared infrastructure for the figure/table benchmarks.

Every ``bench_*`` module reproduces one table or figure from the paper: it
runs the simulated clusters with the paper's parameters (scaled down in
virtual duration so the whole suite finishes in minutes), prints a
paper-vs-measured table, and writes the same table under
``benchmarks/results/`` so it survives pytest's output capturing.

Set ``REPRO_BENCH_SCALE`` (default 1.0) to lengthen or shorten every run,
e.g. ``REPRO_BENCH_SCALE=3 pytest benchmarks/ --benchmark-only`` for longer,
lower-variance runs.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

from repro.bench.plots import ascii_chart, format_table
from repro.bench.results import RunResult, SweepResult
from repro.scenarios import Scenario, ScenarioResult, run_scenario
from repro.workload.spec import WorkloadSpec

RESULTS_DIR = Path(__file__).parent / "results"

#: Scale factor applied to run durations (and the Figure 13 timeline).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Base virtual duration of a single benchmark point, in simulated seconds.
BASE_DURATION = 0.5 * SCALE
BASE_WARMUP = 0.15 * SCALE
#: Tail of every run left out of the measurement window (not scaled).
COOLDOWN = 0.05

#: Client-count sweeps reused across figures (closed-loop clients).
LATENCY_SWEEP_CLIENTS: Sequence[int] = (2, 10, 40, 150, 300)
SMALL_CLUSTER_SWEEP_CLIENTS: Sequence[int] = (2, 10, 40, 120, 240)
MAX_THROUGHPUT_CLIENTS: Sequence[int] = (60, 180)
WAN_SWEEP_CLIENTS: Sequence[int] = (20, 100, 300, 600)

#: Seed used by every benchmark so results are reproducible run to run.
SEED = 42


def paper_scenario(name: str, protocol: str, **shape) -> Scenario:
    """One figure cell: the paper's workload at the suite's seed and duration."""
    shape.setdefault("duration", BASE_DURATION)
    shape.setdefault("workload", WorkloadSpec.paper_default())
    return Scenario(name=name, protocol=protocol, seed=SEED, **shape)


def run_checked(scenario: Scenario) -> ScenarioResult:
    """Run one cell; every figure point is also a safety-checked run."""
    result = run_scenario(scenario)
    result.raise_on_violations()
    return result


def measure(scenario: Scenario) -> RunResult:
    """Run one cell and read its warm-up/cool-down-trimmed window."""
    return run_checked(scenario).stats(start=BASE_WARMUP, end=scenario.duration - COOLDOWN)


def client_sweep(scenario: Scenario, client_counts: Sequence[int]) -> SweepResult:
    """The paper's load sweep: the same cell at each closed-loop client count."""
    sweep = SweepResult(label=scenario.name)
    for count in client_counts:
        sweep.add(measure(replace(scenario, num_clients=count)))
    return sweep


def report(name: str, title: str, lines: Iterable[str]) -> str:
    """Print a report block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    body = "\n".join([f"# {title}", *lines, ""])
    (RESULTS_DIR / f"{name}.txt").write_text(body, encoding="utf-8")
    print(body)
    return body


def comparison_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    return format_table(headers, rows).splitlines()


def chart(series: Dict[str, Sequence], x_label: str, y_label: str) -> List[str]:
    return ascii_chart(series, x_label=x_label, y_label=y_label).splitlines()
