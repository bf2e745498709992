"""The run record, and parallel scenario sweeps.

:class:`SweepOutcome` is the one digest of a scenario run: the scenario
CLI, the fuzz fleet and the shrinker, the test suite's memoised library
runs and ``scripts/compare_library_runs.py`` all read it, and
:func:`run_outcome` is the only function that builds one.  It is small and
picklable -- clusters, simulators and histories hold closures and megabytes
of state -- so it is also the unit a sweep ships back from its worker
processes.  Anything that needs the full result (replica poking, history
analysis, windowed latency stats) should run the scenario in-process via
:class:`~repro.scenarios.runner.ScenarioRunner` instead.

Scenario runs are single-process deterministic and fully independent of
one another (each builds its own simulator from its own seed), which makes
a sweep embarrassingly parallel: farming scenarios out to worker processes
changes *wall-clock only* -- every per-scenario fingerprint is identical to
the serial runner's, and ``tests/test_fuzz.py`` pins that equivalence.

Example::

    from repro.scenarios import all_scenarios
    from repro.scenarios.sweep import sweep

    outcomes = sweep(all_scenarios().values(), parallel=8)
    for outcome in outcomes:
        print(outcome.report())
    assert all(o.ok for o in outcomes)

The CLI exposes the same thing as ``python -m repro.scenarios --all
--parallel 8``, and the fuzz fleet driver (:mod:`repro.fuzz.fleet`) reuses
the pool helpers for its seed sweeps.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import Scenario

#: The checker name of the one violation a run that raised is reported with.
CRASH = "crash"


@dataclass(frozen=True)
class SweepOutcome:
    """Picklable record of one scenario run (built only by :func:`run_outcome`).

    ``violations`` keeps raw ``(checker, message)`` pairs so callers can
    both print the evidence and reason about *which* checker family fired
    without re-running the scenario.  A run that raised has every count at
    zero, no counters and one ``crash`` violation.
    """

    name: str
    fingerprint: str = ""
    completed_requests: int = 0
    recorded_operations: int = 0
    events_processed: int = 0
    violations: Tuple[Tuple[str, str], ...] = ()
    events_fired: Tuple[str, ...] = ()
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every enabled checker passed and the run did not raise."""
        return not self.violations

    @property
    def checkers_violated(self) -> Tuple[str, ...]:
        """Sorted, de-duplicated checker names that reported violations."""
        return tuple(sorted({checker for checker, _ in self.violations}))

    @property
    def crashed(self) -> bool:
        """The run raised instead of finishing (see :func:`run_outcome`)."""
        return any(checker == CRASH for checker, _ in self.violations)

    def report(self) -> str:
        """The summary line, one line per fault fired and per violation."""
        if self.crashed:
            status = "CRASHED"
        else:
            status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        lines = [
            f"{self.name}: {status}, "
            f"{self.completed_requests} ops completed, "
            f"{self.recorded_operations} recorded, "
            f"{self.events_processed} sim events, "
            f"{len(self.events_fired)} faults fired"
        ]
        lines += [f"    fault: {line}" for line in self.events_fired]
        lines += [f"    [{checker}] {message}" for checker, message in self.violations]
        return "\n".join(lines)


def run_outcome(scenario: Scenario) -> SweepOutcome:
    """Run one scenario and record it (also the worker-process entry point).

    A run that raises -- a broken handler, a build the scenario's config
    cannot satisfy -- yields a failed outcome with one ``crash`` violation
    naming the scenario, its seed and the exception, instead of escaping
    and taking every other outcome of the sweep with it.
    """
    try:
        result = ScenarioRunner(scenario).run()
    except Exception as exc:
        return SweepOutcome(
            name=scenario.name,
            violations=((CRASH, f"{scenario.name} seed {scenario.seed}: "
                                f"{type(exc).__name__}: {exc}"),),
        )
    return SweepOutcome(
        name=scenario.name,
        fingerprint=result.fingerprint(),
        completed_requests=result.completed_requests,
        recorded_operations=len(result.history),
        events_processed=result.events_processed,
        violations=tuple((v.checker, v.message) for v in result.violations),
        events_fired=tuple(result.events_fired),
        counters=result.counters(),
    )


def default_workers() -> int:
    """Worker count when the caller says "parallel" without a number."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without CPU affinity (macOS)
        return max(1, os.cpu_count() or 1)


def pool_context() -> multiprocessing.context.BaseContext:
    """Fork when available (cheap, inherits the imported tree), else spawn.

    Everything shipped to workers (:class:`Scenario`, :class:`SweepOutcome`
    and the module-level worker functions) is picklable, so both start
    methods produce identical results.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def sweep(
    scenarios: Iterable[Scenario],
    parallel: Optional[int] = None,
) -> List[SweepOutcome]:
    """Run scenarios, optionally across worker processes.

    ``parallel=None`` or ``1`` runs in-process (the historical serial
    path); ``parallel=N`` uses an ``N``-worker pool; ``parallel=0`` means
    "one worker per available core".  Outcomes come back in input order
    regardless of which worker finished first, so output is deterministic
    either way.
    """
    scenarios = list(scenarios)
    workers = default_workers() if parallel == 0 else (parallel or 1)
    workers = min(workers, len(scenarios)) if scenarios else 1
    if workers <= 1:
        return [run_outcome(scenario) for scenario in scenarios]
    with pool_context().Pool(processes=workers) as pool:
        # chunksize=1: scenario costs vary by two orders of magnitude, so
        # batching would serialise a cheap scenario behind a 25-node one.
        return pool.map(run_outcome, scenarios, chunksize=1)
