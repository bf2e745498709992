"""Seed-fleet driver: fuzz many schedules, shrink every finding.

``run_fleet`` expands a contiguous block of fuzz seeds through the grammar
(:mod:`repro.fuzz.grammar`), runs them -- serially or across worker
processes, reusing the scenario sweep pool machinery -- and, for every
schedule that trips a checker, shrinks it to a minimal repro and renders
the library-ready literal.  Findings are fully replayable: each carries
its fuzz seed, so ``python -m repro.fuzz --seed S`` regenerates the exact
schedule that failed.

Determinism: the set of findings for a given (profile, seed range,
mutation) is identical however many workers ran the sweep -- each seed's
run is single-process deterministic and findings are reported in seed
order.  A wall-clock budget (``time_budget``) makes the fleet usable as a
time-boxed CI job: generation stops starting new seeds once the budget is
spent (findings already made are still shrunk and reported, so a budgeted
run never drops evidence it already has).
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.fuzz.grammar import DEFAULT_PROFILE, FuzzProfile, generate_scenario
from repro.fuzz.mutations import apply_mutation
from repro.fuzz.shrink import ShrinkResult, scenario_literal, shrink
from repro.scenarios.spec import Scenario
from repro.scenarios.sweep import SweepOutcome, pool_context, run_outcome


@dataclass(frozen=True)
class FleetFinding:
    """One checker-violating fuzz schedule, plus its shrunk repro."""

    seed: int
    scenario: Scenario
    checkers: Tuple[str, ...]
    violations: Tuple[Tuple[str, str], ...]
    shrunk: Optional[Scenario] = None
    shrink_steps: Tuple[str, ...] = ()
    shrink_runs: int = 0

    def report(self) -> str:
        """Human-readable finding: evidence first, then both literals."""
        lines = [
            f"fuzz seed {self.seed}: {len(self.violations)} violation(s) "
            f"from {', '.join(self.checkers)}",
        ]
        for checker, message in self.violations[:5]:
            lines.append(f"  [{checker}] {message}")
        if len(self.violations) > 5:
            lines.append(f"  ... and {len(self.violations) - 5} more")
        lines.append("")
        lines.append(f"replay: python -m repro.fuzz --seed {self.seed}")
        lines.append("")
        lines.append("generated schedule:")
        lines.append(scenario_literal(self.scenario, indent="    "))
        if self.shrunk is not None:
            lines.append("")
            lines.append(
                f"shrunk repro ({self.shrink_runs} runs, "
                f"{len(self.shrink_steps)} reductions):"
            )
            lines.append(scenario_literal(self.shrunk, indent="    "))
        return "\n".join(lines)


@dataclass
class FleetReport:
    """Everything one fleet run produced."""

    start_seed: int
    requested: int
    seeds_run: int
    findings: List[FleetFinding]
    mutation: Optional[str]
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        status = "clean" if self.ok else f"{len(self.findings)} FINDING(S)"
        budgeted = "" if self.seeds_run == self.requested else (
            f" ({self.requested - self.seeds_run} skipped on time budget)"
        )
        mutation = f", mutation={self.mutation}" if self.mutation else ""
        return (
            f"fuzz fleet: {status} over seeds "
            f"[{self.start_seed}, {self.start_seed + self.seeds_run})"
            f"{budgeted}{mutation}, {self.wall_seconds:.1f}s wall"
        )


def _fuzz_worker(args: Tuple[int, FuzzProfile, Optional[str]]) -> Tuple[int, SweepOutcome]:
    """Worker-process entry point: generate one seed's schedule and run it."""
    seed, profile, mutation = args
    with apply_mutation(mutation):
        return seed, run_outcome(generate_scenario(seed, profile))


def _outcomes(
    seeds: List[int],
    profile: FuzzProfile,
    mutation: Optional[str],
    parallel: Optional[int],
    deadline: Optional[float],
) -> Iterator[Tuple[int, SweepOutcome]]:
    """Yield (seed, outcome) pairs, stopping at the wall-clock deadline."""
    jobs = [(seed, profile, mutation) for seed in seeds]
    if parallel is None or parallel <= 1:
        for job in jobs:
            if deadline is not None and time.monotonic() >= deadline:  # lint: ok(no-wall-clock) fleet time budget is real elapsed time; sim results unaffected
                return
            yield _fuzz_worker(job)
        return
    with pool_context().Pool(processes=parallel) as pool:
        results = pool.imap(_fuzz_worker, jobs, chunksize=1)
        while True:
            if deadline is not None and time.monotonic() >= deadline:  # lint: ok(no-wall-clock) fleet time budget is real elapsed time; sim results unaffected
                pool.terminate()
                return
            try:
                timeout = None if deadline is None else max(
                    0.1, deadline - time.monotonic()  # lint: ok(no-wall-clock) fleet time budget is real elapsed time; sim results unaffected
                )
                yield results.next(timeout=timeout)
            except StopIteration:
                return
            except multiprocessing.TimeoutError:
                pool.terminate()
                return


def run_fleet(
    start_seed: int = 0,
    count: int = 100,
    profile: FuzzProfile = DEFAULT_PROFILE,
    mutation: Optional[str] = None,
    parallel: Optional[int] = None,
    time_budget: Optional[float] = None,
    shrink_findings: bool = True,
    max_shrink_runs: int = 250,
    stop_after: Optional[int] = None,
    verbose: bool = False,
) -> FleetReport:
    """Fuzz ``count`` seeds starting at ``start_seed``; shrink what fails.

    ``stop_after`` short-circuits the sweep once that many findings exist
    (mutation-calibration runs only need the first).  Shrinking happens in
    the parent process, under the same mutation patch the fleet ran with,
    so the shrunk repro is validated against the same (buggy) code that
    produced the violation.  A seed whose run raised is a finding with its
    ``crash`` violation and no shrunk repro.
    """
    started = time.monotonic()  # lint: ok(no-wall-clock) fleet time budget is real elapsed time; sim results unaffected
    deadline = None if time_budget is None else started + time_budget
    seeds = list(range(start_seed, start_seed + count))
    seeds_run = 0
    raw_findings: List[Tuple[int, SweepOutcome]] = []
    for seed, outcome in _outcomes(seeds, profile, mutation, parallel, deadline):
        seeds_run += 1
        if verbose and seeds_run % 25 == 0:
            print(f"  ... {seeds_run}/{count} seeds, "
                  f"{len(raw_findings)} finding(s)")
        if not outcome.ok:
            raw_findings.append((seed, outcome))
            if verbose:
                print(f"  FINDING at seed {seed}: "
                      f"{', '.join(outcome.checkers_violated)}")
            if stop_after is not None and len(raw_findings) >= stop_after:
                break

    findings: List[FleetFinding] = []
    for seed, outcome in sorted(raw_findings):
        scenario = generate_scenario(seed, profile)
        shrunk: Optional[ShrinkResult] = None
        # A run that crashed is reported as it is: every exception is the
        # same ``crash`` checker, so a shrink could drift to another bug.
        if shrink_findings and not outcome.crashed:
            with apply_mutation(mutation):
                target = frozenset(outcome.checkers_violated)
                shrunk = shrink(scenario, target=target, max_runs=max_shrink_runs)
        findings.append(
            FleetFinding(
                seed=seed,
                scenario=scenario,
                checkers=outcome.checkers_violated,
                violations=outcome.violations,
                shrunk=None if shrunk is None else shrunk.shrunk,
                shrink_steps=() if shrunk is None else shrunk.steps,
                shrink_runs=0 if shrunk is None else shrunk.runs,
            )
        )

    return FleetReport(
        start_seed=start_seed,
        requested=count,
        seeds_run=seeds_run,
        findings=findings,
        mutation=mutation,
        wall_seconds=time.monotonic() - started,  # lint: ok(no-wall-clock) reported wall-clock duration of the fleet itself
    )
