"""Command-line front end: ``python -m repro.lint [paths] [--rule ...]``.

Exit codes gate CI: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.core import Finding, LintEngine, Suppression
from repro.lint.rules import RULES, default_rules


def _format_table(findings: Sequence[Finding]) -> str:
    rows = [
        (f"{finding.path}:{finding.line}", finding.rule, finding.message)
        for finding in findings
    ]
    loc_width = max(len(row[0]) for row in rows)
    rule_width = max(len(row[1]) for row in rows)
    lines = [
        f"{loc:<{loc_width}}  {rule:<{rule_width}}  {message}"
        for loc, rule, message in rows
    ]
    hints = {finding.rule: finding.hint for finding in findings if finding.hint}
    if hints:
        lines.append("")
        lines.extend(f"  fix[{rule_id}]: {hints[rule_id]}" for rule_id in sorted(hints))
    return "\n".join(lines)


def _format_suppressions(suppressions: Sequence[Suppression]) -> str:
    if not suppressions:
        return "no suppressions"
    lines = [f"{len(suppressions)} suppression(s):"]
    for suppression in suppressions:
        rules = ", ".join(suppression.rules) or "<none>"
        reason = suppression.reason or "<NO REASON>"
        lines.append(
            f"  {suppression.path}:{suppression.line}  ok({rules})  {reason}"
        )
    return "\n".join(lines)


def _list_rules() -> str:
    width = max(len(rule_id) for rule_id in RULES)
    return "\n".join(f"{rule.id:<{width}}  {rule.title}" for rule in RULES.values())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static determinism & protocol-hygiene checks for the repro tree. "
            "Semantic rules only; style belongs to ruff."
        ),
    )
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories to check")
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE-ID",
        help="run only this rule (repeatable); default: all rules",
    )
    parser.add_argument("--json", action="store_true", help="emit findings as a JSON array")
    parser.add_argument("--list-rules", action="store_true", help="print the rule catalogue")
    parser.add_argument(
        "--list-suppressions",
        action="store_true",
        help="print every inline suppression with its reason",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return 2

    missing = [str(path) for path in args.paths if not path.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    try:
        rules = default_rules(args.rules)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        print(f"known rules:\n{_list_rules()}", file=sys.stderr)
        return 2

    engine = LintEngine(rules, all_rules_active=not args.rules)
    findings, suppressions = engine.lint_paths(args.paths)

    if args.list_suppressions:
        print(_format_suppressions(suppressions))
        return 0

    if args.json:
        print(json.dumps([asdict(finding) for finding in findings], indent=2))
    elif findings:
        print(_format_table(findings))
        print(f"\n{len(findings)} finding(s) in {engine.files_checked} file(s)", file=sys.stderr)
    else:
        used = sum(1 for s in suppressions if s.used)
        print(
            f"clean: {engine.files_checked} file(s), "
            f"{len(RULES)} rule(s), {used} active suppression(s)"
        )
    return 1 if findings else 0

