"""Deterministic adversarial scenario engine.

This package turns "as many scenarios as you can imagine" into a library:
a :class:`~repro.scenarios.spec.Scenario` declaratively describes a
cluster shape, workload, and a timed fault schedule (crashes, partitions,
relay churn, drop storms); a
:class:`~repro.scenarios.runner.ScenarioRunner` compiles it onto the
discrete-event simulator, records every client operation, and applies the
:mod:`repro.checkers` safety checkers post-hoc.  Everything is
deterministic per seed -- the same scenario always produces byte-identical
histories, which makes violations replayable and lets regression tests
assert on exact fingerprints.

Quick start::

    from repro.scenarios import get_scenario, run_scenario
    from repro.scenarios.sweep import run_outcome

    result = run_scenario(get_scenario("pig-crash-leader-during-round"))
    result.raise_on_violations()
    print(result.stats().row())

    # The picklable run record the CLI prints (no cluster, no history):
    print(run_outcome(get_scenario("pig-baseline-5")).report())

Or from the command line::

    PYTHONPATH=src python -m repro.scenarios --list
    PYTHONPATH=src python -m repro.scenarios --run pig-baseline-5
    PYTHONPATH=src python -m repro.scenarios --smoke
"""

from repro.scenarios.library import (
    SMOKE_SCENARIOS,
    all_scenarios,
    get_scenario,
    scenarios_for_protocol,
)
from repro.scenarios.runner import ScenarioResult, ScenarioRunner, run_scenario
from repro.scenarios.spec import Scenario, ScenarioEvent

__all__ = [
    "SMOKE_SCENARIOS",
    "Scenario",
    "ScenarioEvent",
    "ScenarioResult",
    "ScenarioRunner",
    "all_scenarios",
    "get_scenario",
    "run_scenario",
    "scenarios_for_protocol",
]
