"""Benchmark records and formatters.

Pure data and text: :class:`RunResult` holds what a run measured (a sweep
is a list of them), ``format_table`` prints rows.  Nothing here builds or
runs a cluster -- an experiment is a :class:`repro.scenarios.Scenario`, and
``run_scenario(s).stats(start=warmup)`` fills the :class:`RunResult`.
``benchmarks/paper.py`` does exactly that with the paper's parameters and
scores each claim of the paper against it.
"""

from repro.bench.results import RunResult
from repro.bench.plots import format_table

__all__ = [
    "RunResult",
    "format_table",
]
