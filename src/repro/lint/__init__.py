"""repro.lint: static enforcement of the determinism contract.

The dynamic guarantees (golden fingerprints, replayable fuzz seeds,
parallel-vs-serial sweep identity) all ride on the contract in
``docs/ARCHITECTURE.md``; this package catches contract violations before
any scenario has to trip over them.  ``repro.lint`` owns the *semantic*
rules; ``ruff`` (configured in ``pyproject.toml``) owns conventional style.

Usage::

    PYTHONPATH=src python -m repro.lint src/repro
    PYTHONPATH=src python -m repro.lint --list-rules
    PYTHONPATH=src python -m repro.lint --list-suppressions src/repro
"""

from repro.lint.core import (
    FileContext,
    Finding,
    LintEngine,
    Rule,
    Suppression,
    parse_suppressions,
    repro_relpath,
)
from repro.lint.rules import RULES, SIM_SCOPE, default_rules

__all__ = [
    "FileContext",
    "Finding",
    "LintEngine",
    "RULES",
    "Rule",
    "SIM_SCOPE",
    "Suppression",
    "default_rules",
    "parse_suppressions",
    "repro_relpath",
]
