"""Benchmark records and formatters.

Pure data and text: :class:`RunResult` / :class:`SweepResult` hold what a
run measured, ``format_table`` / ``ascii_chart`` print it.  Nothing here
builds or runs a cluster -- an experiment is a
:class:`repro.scenarios.Scenario`, and ``run_scenario(s).stats(start=warmup)``
fills the :class:`RunResult`.  Each module in ``benchmarks/`` does exactly
that with the paper's parameters and prints paper-vs-measured tables.
"""

from repro.bench.results import RunResult, SweepResult
from repro.bench.plots import ascii_chart, format_table

__all__ = [
    "RunResult",
    "SweepResult",
    "ascii_chart",
    "format_table",
]
