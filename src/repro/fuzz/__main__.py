"""CLI for the fuzz tier.

Single-seed replay (deterministic: the same ``--seed`` always regenerates
the same schedule)::

    PYTHONPATH=src python -m repro.fuzz --seed 42            # generate + run
    PYTHONPATH=src python -m repro.fuzz --seed 42 --emit     # print literal only
    PYTHONPATH=src python -m repro.fuzz --seed 42 --shrink   # minimize if violating

Seed fleets (exit status 1 when any finding survives)::

    PYTHONPATH=src python -m repro.fuzz --fleet 200 --parallel 0
    PYTHONPATH=src python -m repro.fuzz --fleet 40 --mutation key-index \\
        --protocols epaxos --artifacts /tmp/fuzz-out
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.fuzz.fleet import FleetReport, run_fleet
from repro.fuzz.grammar import DEFAULT_PROFILE, generate_scenario
from repro.fuzz.mutations import MUTATIONS, apply_mutation
from repro.fuzz.shrink import scenario_literal, shrink
from repro.scenarios.sweep import default_workers, run_outcome


def _run_single(args, profile) -> int:
    scenario = generate_scenario(args.seed, profile)
    if args.emit:
        print(scenario_literal(scenario))
        return 0
    with apply_mutation(args.mutation):
        outcome = run_outcome(scenario)
        print(outcome.report())
        print()
        print(scenario_literal(scenario))
        if outcome.ok or not args.shrink:
            return 0 if outcome.ok else 1
        shrunk = shrink(scenario, max_runs=args.max_shrink_runs)
    print()
    print(
        f"shrunk in {shrunk.runs} runs "
        f"({len(shrunk.steps)} reductions: {', '.join(shrunk.steps)}):"
    )
    print(scenario_literal(shrunk.shrunk))
    return 1


def _write_artifacts(report: FleetReport, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for finding in report.findings:
        path = directory / f"finding-{finding.seed}.md"
        path.write_text(
            f"# Fuzz finding: seed {finding.seed}\n\n```\n"
            + finding.report()
            + "\n```\n"
        )
    summary = {
        "summary": report.summary(),
        "ok": report.ok,
        "start_seed": report.start_seed,
        "requested": report.requested,
        "seeds_run": report.seeds_run,
        "mutation": report.mutation,
        "wall_seconds": round(report.wall_seconds, 2),
        "findings": [
            {
                "seed": f.seed,
                "checkers": list(f.checkers),
                "violations": len(f.violations),
                "shrunk_events": None if f.shrunk is None else len(f.shrunk.events),
                "shrunk_nodes": None if f.shrunk is None else f.shrunk.num_nodes,
            }
            for f in report.findings
        ],
    }
    (directory / "report.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {len(report.findings)} finding file(s) + report.json to {directory}")


def _run_fleet(args, profile) -> int:
    report = run_fleet(
        start_seed=args.start_seed,
        count=args.fleet,
        profile=profile,
        mutation=args.mutation,
        parallel=args.parallel,
        time_budget=args.time_budget,
        max_shrink_runs=args.max_shrink_runs,
        verbose=True,
    )
    print()
    print(report.summary())
    for finding in report.findings:
        print()
        print(finding.report())
    if args.artifacts is not None:
        _write_artifacts(report, args.artifacts)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__[__doc__.index("\n"):],
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seed", type=int, help="generate and run one fuzz seed")
    mode.add_argument("--fleet", type=int, metavar="N",
                      help="fuzz N consecutive seeds, shrinking every finding")
    parser.add_argument("--emit", action="store_true",
                        help="with --seed: print the Scenario literal and exit")
    parser.add_argument("--shrink", action="store_true",
                        help="with --seed: shrink the schedule if it violates")
    parser.add_argument("--start-seed", type=int, default=0,
                        help="with --fleet: first seed (default 0)")
    parser.add_argument("--parallel", type=int, default=None, metavar="N",
                        help="with --fleet: worker processes (0 = one per core)")
    parser.add_argument("--mutation", choices=sorted(MUTATIONS), default=None,
                        help="run with a named re-seeded bug (calibration mode)")
    parser.add_argument("--time-budget", type=float, default=None, metavar="SEC",
                        help="with --fleet: stop starting new seeds after SEC")
    parser.add_argument("--max-shrink-runs", type=int, default=250,
                        help="scenario-execution budget per shrink (default 250)")
    parser.add_argument("--artifacts", type=Path, default=None, metavar="DIR",
                        help="with --fleet: write finding-<seed>.md + report.json")
    parser.add_argument("--protocols", default=None,
                        help="comma-separated protocol subset, e.g. 'epaxos'")
    parser.add_argument("--hierarchy-probability", type=float, default=None,
                        metavar="P",
                        help="override the planet-hierarchy redeploy "
                             "probability (0 disables the dimension)")
    args = parser.parse_args(argv)

    profile = DEFAULT_PROFILE
    if args.protocols:
        profile = replace(
            profile, protocols=tuple(args.protocols.split(","))
        )
    if args.hierarchy_probability is not None:
        profile = replace(
            profile, hierarchy_probability=args.hierarchy_probability
        )
    if args.parallel == 0:
        args.parallel = default_workers()

    if args.seed is not None:
        return _run_single(args, profile)
    return _run_fleet(args, profile)


if __name__ == "__main__":
    sys.exit(main())
