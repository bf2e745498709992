#!/usr/bin/env python3
"""Executed Python bytecode per completed operation, per ledger workload.

A deterministic cost count to read next to the ledger's
``host_calls_per_op``: a call count misses work that only moves between
frames (a helper inlined into its caller costs no call but the same
bytecode), so a change that cuts calls should also show whether the
bytecode behind them fell.  ``sys.settrace`` with ``f_trace_opcodes``
counts every opcode executed and every Python frame entered (a generator
resumption included) during ``ScenarioRunner.run``; C code is not traced.
Both are divided by the run's completed operations.  The run's history
fingerprint is printed next to them, so two trees' counts can be checked
to come from the same run.

Each workload runs once, in this process, at the ledger's ``--quick``
shrink: every simulated time divided by 3, after an untraced probe build.
The eight workloads take about 15 s on a 2-vCPU box.

Usage::

    python scripts/count_instructions.py                      # all eight workloads, seed 1
    python scripts/count_instructions.py --workload lan25_pig --seed 2

The workloads are read from ``benchmarks/ledger/workloads.py``, which this
script only imports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "ledger"))

from workloads import WORKLOADS  # noqa: E402

from repro.scenarios import ScenarioRunner  # noqa: E402

#: The ledger's ``--quick`` shrink (``benchmarks/ledger/run.py``).
SHRINK = 3


def count(workload: str, seed: int) -> dict:
    """Run ``workload`` once under the opcode tracer; its per-op counts."""
    scenario, _, _ = WORKLOADS[workload].instantiate(seed, SHRINK)
    # An untraced probe build first, as the ledger's repetitions make one:
    # the traced run then pays no first-use imports.
    ScenarioRunner(scenario).build().start()
    frames = 0
    instructions = 0

    def on_event(frame, event, arg):
        nonlocal instructions
        if event == "opcode":
            instructions += 1
        return on_event

    def on_call(frame, event, arg):
        nonlocal frames
        frames += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_event

    sys.settrace(on_call)
    try:
        result = ScenarioRunner(scenario).run()
    finally:
        sys.settrace(None)
    completed = result.completed_requests
    return {
        "completed": completed,
        "frames_per_op": frames / completed,
        "instructions_per_op": instructions / completed,
        "fingerprint": result.fingerprint(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="a workload to count (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    print(f"{'workload':<20} {'ops':>6} {'frames/op':>10} {'instructions/op':>16}  fingerprint")
    for name in args.workload or list(WORKLOADS):
        row = count(name, args.seed)
        print(f"{name:<20} {row['completed']:>6} {row['frames_per_op']:>10.1f} "
              f"{row['instructions_per_op']:>16.1f}  {row['fingerprint']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
