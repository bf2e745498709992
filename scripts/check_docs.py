#!/usr/bin/env python3
"""Documentation link checker (used by the CI docs/lint step).

Scans the repo's markdown files for relative links and verifies every
target exists.  External links (http/https/mailto) and pure anchors are
skipped; a ``path#anchor`` link is checked for the path only.

Additionally cross-checks the "Static analysis" section of
``docs/ARCHITECTURE.md`` against the live ``repro.lint`` rule registry,
in both directions: every registered rule id must be documented, and
every documented rule id must exist in the registry.  The knob x protocol
table of the same file is cross-checked the same way against
``repro.protocol.resolver.KNOB_TABLE``: same knobs, same protocol columns,
and ``honoured``/``rejected`` in every cell exactly as the resolver has it.
The flush-trigger table of the "Batching & pipelining" section is held to
``repro.protocol.batching.TRIGGERS`` -- and those to the ``batch.flush.*``
names in ``repro.lint.counters`` -- in both directions too.

Finally, every ``import repro...`` / ``from repro... import ...`` inside a
fenced ``python`` block must resolve -- module importable, names present --
so a document that teaches a deleted class fails the docs job.

Usage::

    python scripts/check_docs.py [file_or_dir ...]   # defaults to README.md docs/
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target) -- excludes images handled the same.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def markdown_files(arguments: list[str]) -> list[Path]:
    if not arguments:
        arguments = ["README.md", "docs"]
    files: list[Path] = []
    for argument in arguments:
        path = (REPO_ROOT / argument).resolve()
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        elif path.exists():
            files.append(path)
        else:
            print(f"error: no such file or directory: {argument}", file=sys.stderr)
            sys.exit(2)
    return files


def check_file(markdown: Path) -> list[str]:
    problems = []
    text = markdown.read_text(encoding="utf-8")
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_PREFIXES):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (markdown.parent / relative).resolve()
        if not resolved.exists():
            problems.append(f"{markdown.relative_to(REPO_ROOT)}: broken link -> {target}")
    return problems


#: Fenced ```python blocks; group 1 is the code.
PYTHON_BLOCK_RE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _imports(block: str):
    """``(module, name | None)`` for every absolute import statement in ``block``."""
    try:
        tree = ast.parse(block)
    except SyntaxError:
        # A fragment (a lone loop header, ...): its import lines still count.
        lines = [ln for ln in block.splitlines() if ln.startswith(("import ", "from "))]
        tree = ast.parse("\n".join(lines))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield from ((node.module, alias.name) for alias in node.names)


def unresolved_imports(text: str) -> list[str]:
    """The ``repro`` imports in ``text``'s fenced python blocks that do not resolve."""
    problems = []
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        for block in PYTHON_BLOCK_RE.findall(text):
            try:
                wanted = [pair for pair in _imports(block) if pair[0].split(".")[0] == "repro"]
            except SyntaxError as exc:
                problems.append(f"import in python block does not parse: {exc}")
                continue
            for module_name, name in wanted:
                try:
                    module = importlib.import_module(module_name)
                except ImportError as exc:
                    problems.append(f"`import {module_name}` fails: {exc}")
                    continue
                if name is not None and not hasattr(module, name):
                    problems.append(f"`from {module_name} import {name}`: no such name")
    finally:
        sys.path.pop(0)
    return problems


#: Backticked tokens that look like lint rule ids: lowercase kebab-case
#: with at least one hyphen (filters out paths, module names and CLI
#: flags, which carry dots, slashes or leading dashes).
RULE_ID_RE = re.compile(r"`([a-z][a-z0-9]*(?:-[a-z0-9]+)+)`")

ARCHITECTURE_MD = REPO_ROOT / "docs" / "ARCHITECTURE.md"
STATIC_ANALYSIS_HEADING = "## Static analysis"


def static_analysis_section(text: str) -> str | None:
    """The body of ARCHITECTURE.md's "Static analysis" section, if present."""
    start = text.find(STATIC_ANALYSIS_HEADING)
    if start == -1:
        return None
    body_start = start + len(STATIC_ANALYSIS_HEADING)
    end = text.find("\n## ", body_start)
    return text[body_start:] if end == -1 else text[body_start:end]


def check_lint_rule_docs() -> list[str]:
    """Cross-check documented rule ids against the live rule registry."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.lint.rules import RULES
    finally:
        sys.path.pop(0)

    if not ARCHITECTURE_MD.exists():
        return [f"{ARCHITECTURE_MD.relative_to(REPO_ROOT)}: file missing"]
    section = static_analysis_section(ARCHITECTURE_MD.read_text(encoding="utf-8"))
    if section is None:
        return [
            f"{ARCHITECTURE_MD.relative_to(REPO_ROOT)}: "
            f'no "{STATIC_ANALYSIS_HEADING}" section (rule catalogue lives there)'
        ]

    documented = {token for token in RULE_ID_RE.findall(section) if token in RULES}
    doc_only = {
        token
        for token in RULE_ID_RE.findall(section)
        # Hyphenated backticked tokens in the rule-catalogue table column
        # must be real rule ids; elsewhere in the section prose they may
        # be ordinary hyphenated identifiers, so only the table is strict.
        if token not in RULES
        and any(
            line.lstrip().startswith(f"| `{token}`")
            for line in section.splitlines()
        )
    }
    problems = []
    for rule_id in sorted(set(RULES) - documented):
        problems.append(
            f"docs/ARCHITECTURE.md: lint rule `{rule_id}` is registered in "
            "repro.lint.rules.RULES but missing from the Static analysis section"
        )
    for token in sorted(doc_only):
        problems.append(
            f"docs/ARCHITECTURE.md: Static analysis section documents `{token}` "
            "but repro.lint.rules.RULES has no such rule"
        )
    return problems


#: The knob table's header row; its protocol columns are read from it.
KNOB_TABLE_HEADER_RE = re.compile(r"^\| knob \|(.+)\|\s*$", re.MULTILINE)
KNOB_ROW_RE = re.compile(r"^\| `([a-z_0-9]+)` \|(.+)\|\s*$")


def check_knob_table_docs() -> list[str]:
    """Cross-check ARCHITECTURE.md's knob x protocol table against the resolver's."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.protocol.resolver import KNOB_TABLE, PROTOCOLS
    finally:
        sys.path.pop(0)

    if not ARCHITECTURE_MD.exists():
        return []  # already reported by check_lint_rule_docs
    text = ARCHITECTURE_MD.read_text(encoding="utf-8")
    header = KNOB_TABLE_HEADER_RE.search(text)
    if header is None:
        return ["docs/ARCHITECTURE.md: no `| knob | <protocols...> |` table"]
    columns = [cell.strip() for cell in header.group(1).split("|")]
    problems = []
    if columns != list(PROTOCOLS):
        problems.append(
            f"docs/ARCHITECTURE.md: knob table columns {columns} != "
            f"resolver.PROTOCOLS {list(PROTOCOLS)}"
        )
        return problems
    documented: dict[str, dict[str, str]] = {}
    for line in text[header.end():].lstrip("\n").splitlines()[1:]:  # skip the |---| rule
        row = KNOB_ROW_RE.match(line)
        if row is None:
            break
        cells = [cell.strip() for cell in row.group(2).split("|")]
        documented[row.group(1)] = dict(zip(columns, cells))
    for knob in sorted(set(KNOB_TABLE) - set(documented)):
        problems.append(
            f"docs/ARCHITECTURE.md: knob `{knob}` is in resolver.KNOB_TABLE "
            "but missing from the knob table"
        )
    for knob in sorted(set(documented) - set(KNOB_TABLE)):
        problems.append(
            f"docs/ARCHITECTURE.md: knob table documents `{knob}` "
            "but resolver.KNOB_TABLE has no such knob"
        )
    for knob in sorted(set(documented) & set(KNOB_TABLE)):
        for protocol in PROTOCOLS:
            expected = "honoured" if protocol in KNOB_TABLE[knob] else "rejected"
            found = documented[knob].get(protocol)
            if found != expected:
                problems.append(
                    f"docs/ARCHITECTURE.md: knob table says `{knob}` x {protocol} "
                    f"is {found!r}; resolver.KNOB_TABLE says {expected!r}"
                )
    return problems


#: The flush-trigger table's header row and its rows (first cell: the trigger).
TRIGGER_TABLE_HEADER_RE = re.compile(r"^\| trigger \|.+\|\s*$", re.MULTILINE)
TRIGGER_ROW_RE = re.compile(r"^\| `([a-z_]+)` \|")


def trigger_table_problems(text: str) -> list[str]:
    """Cross-check ``text``'s flush-trigger table against the batcher's triggers."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.lint.counters import METRIC_NAMES
        from repro.protocol.batching import TRIGGERS
    finally:
        sys.path.pop(0)

    header = TRIGGER_TABLE_HEADER_RE.search(text)
    if header is None:
        return ["docs/ARCHITECTURE.md: no `| trigger | ... |` table of batch flush triggers"]
    documented = set()
    for line in text[header.end():].lstrip("\n").splitlines()[1:]:  # skip the |---| rule
        row = TRIGGER_ROW_RE.match(line)
        if row is None:
            break
        documented.add(row.group(1))
    prefix = "batch.flush."
    counted = {name[len(prefix):] for name in METRIC_NAMES if name.startswith(prefix)}
    problems = []
    for trigger in sorted(set(TRIGGERS) - documented):
        problems.append(
            f"docs/ARCHITECTURE.md: flush trigger `{trigger}` is in batching.TRIGGERS "
            "but missing from the trigger table"
        )
    for trigger in sorted(documented - set(TRIGGERS)):
        problems.append(
            f"docs/ARCHITECTURE.md: trigger table documents `{trigger}` "
            "but batching.TRIGGERS has no such trigger"
        )
    for trigger in sorted(set(TRIGGERS) ^ counted):
        problems.append(
            f"src/repro/lint/counters.py: `{prefix}{trigger}` is in only one of "
            "METRIC_NAMES and batching.TRIGGERS"
        )
    return problems


def main(arguments: list[str]) -> int:
    files = markdown_files(arguments)
    problems = [problem for markdown in files for problem in check_file(markdown)]
    problems.extend(
        f"{markdown.relative_to(REPO_ROOT)}: {problem}"
        for markdown in files
        for problem in unresolved_imports(markdown.read_text(encoding="utf-8"))
    )
    problems.extend(check_lint_rule_docs())
    problems.extend(check_knob_table_docs())
    if ARCHITECTURE_MD.exists():  # a missing file is already reported above
        problems.extend(trigger_table_problems(ARCHITECTURE_MD.read_text(encoding="utf-8")))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {len(files)} markdown file(s): "
          f"{'OK' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
