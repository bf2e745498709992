"""Parallel scenario sweeps.

Scenario runs are single-process deterministic and fully independent of
one another (each builds its own simulator from its own seed), which makes
a sweep embarrassingly parallel: farming scenarios out to worker processes
changes *wall-clock only* -- every per-scenario fingerprint is identical to
the serial runner's, and ``tests/test_fuzz.py`` pins that equivalence.

The unit that crosses process boundaries is :class:`SweepOutcome`, a small
picklable digest of a :class:`~repro.scenarios.runner.ScenarioResult`:
clusters, simulators and histories hold closures and megabytes of state, so
workers summarise before returning.  Anything that needs the full result
(replica poking, history analysis) should run the scenario in-process via
:class:`~repro.scenarios.runner.ScenarioRunner` instead.

Example::

    from repro.scenarios import all_scenarios
    from repro.scenarios.sweep import sweep

    outcomes = sweep(all_scenarios().values(), parallel=8)
    assert all(o.ok for o in outcomes)

The CLI exposes the same thing as ``python -m repro.scenarios --all
--parallel 8``, and the fuzz fleet driver (:mod:`repro.fuzz.fleet`) reuses
the pool helpers for its seed sweeps.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import Scenario

#: The checker name of the one violation a run that raised is reported with.
CRASH = "crash"


@dataclass(frozen=True)
class SweepOutcome:
    """Picklable summary of one scenario run.

    ``violations`` keeps (checker, message) pairs so callers -- the CLI,
    the fuzz fleet, tests -- can both print the evidence and reason about
    *which* checker family fired without re-running the scenario.
    """

    name: str
    ok: bool
    fingerprint: str
    completed_requests: int
    events_processed: int
    virtual_duration: float
    violations: Tuple[Tuple[str, str], ...] = ()
    events_fired: Tuple[str, ...] = ()

    @property
    def checkers_violated(self) -> Tuple[str, ...]:
        """Sorted, de-duplicated checker names that reported violations."""
        return tuple(sorted({checker for checker, _ in self.violations}))

    @property
    def crashed(self) -> bool:
        """The run raised instead of finishing (see :func:`run_outcome`)."""
        return any(checker == CRASH for checker, _ in self.violations)

    def summary(self) -> str:
        if self.crashed:
            status = "CRASHED"
        else:
            status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (
            f"{self.name}: {status}, "
            f"{self.completed_requests} ops completed, "
            f"{self.events_processed} sim events, "
            f"{len(self.events_fired)} faults fired"
        )


def run_outcome(scenario: Scenario) -> SweepOutcome:
    """Run one scenario and summarise it (the worker-process entry point).

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
            ok=False,
            fingerprint="",
            completed_requests=0,
            events_processed=0,
            virtual_duration=0.0,
            violations=((CRASH, f"{scenario.name} seed {scenario.seed}: "
                                f"{type(exc).__name__}: {exc}"),),
        )
    return SweepOutcome(
        name=scenario.name,
        ok=result.ok,
        fingerprint=result.fingerprint(),
        completed_requests=result.completed_requests,
        events_processed=result.events_processed,
        virtual_duration=result.virtual_duration,
        violations=tuple((v.checker, str(v)) for v in result.violations),
        events_fired=tuple(result.events_fired),
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
