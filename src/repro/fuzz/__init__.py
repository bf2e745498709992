"""Grammar-driven fault-schedule fuzzing for the scenario engine.

The fuzz tier sits on top of the deterministic scenario engine
(:mod:`repro.scenarios`) and turns it into a property-based testing rig:

* :mod:`repro.fuzz.grammar` -- samples random-but-valid scenarios (cluster
  shape, protocol x overlay, workload mix, timed fault schedule) from a
  seeded RNG.  Same fuzz seed => bit-identical ``Scenario``.
* :mod:`repro.fuzz.shrink` -- minimizes any checker-violating scenario to
  a small repro and renders it as a library-ready ``Scenario(...)``
  literal for check-in.
* :mod:`repro.fuzz.mutations` -- re-seeds three known (fixed) EPaxos bugs
  so the fleet can prove it actually finds and shrinks real violations,
  plus two breaks of the batched reply path every protocol shares.
* :mod:`repro.fuzz.fleet` -- drives many seeds, optionally across worker
  processes and under a wall-clock budget, shrinking every finding.

CLI entry point: ``python -m repro.fuzz --help``.
"""

from repro.fuzz.fleet import FleetFinding, FleetReport, run_fleet
from repro.fuzz.grammar import (
    CLUSTER_SHAPES,
    DEFAULT_PROFILE,
    FuzzProfile,
    generate_scenario,
)
from repro.fuzz.mutations import MUTATIONS, apply_mutation
from repro.fuzz.shrink import ShrinkResult, scenario_literal, shrink

__all__ = [
    "CLUSTER_SHAPES",
    "DEFAULT_PROFILE",
    "FleetFinding",
    "FleetReport",
    "FuzzProfile",
    "MUTATIONS",
    "ShrinkResult",
    "apply_mutation",
    "generate_scenario",
    "run_fleet",
    "scenario_literal",
    "shrink",
]
