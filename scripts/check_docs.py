#!/usr/bin/env python3
"""Documentation link checker (used by the CI docs/lint step).

Scans the repo's markdown files for relative links and verifies every
target exists.  External links (http/https/mailto) and pure anchors are
skipped; a ``path#anchor`` link is checked for the path only.

Additionally cross-checks the "Static analysis" section of
``docs/ARCHITECTURE.md`` against the live ``repro.lint`` rule registry,
in both directions: every registered rule id must be documented, and
every documented rule id must exist in the registry; the catalogue table
lists the rules in registry order, each description opening with the
rule's title.  The knob x protocol
table of the same file is cross-checked the same way against
``repro.protocol.resolver.KNOB_TABLE``: same knobs, same protocol columns,
and ``honoured``/``rejected`` in every cell exactly as the resolver has it.
The flush-trigger table of the "Batching & pipelining" section is held to
``repro.protocol.batching.TRIGGERS`` -- and those to the ``batch.flush.*``
names in ``repro.lint.counters`` -- in both directions too.

Every ``import repro...`` / ``from repro... import ...`` inside a fenced
``python`` block must resolve -- module importable, names present -- so a
document that teaches a deleted class fails the docs job.  So must every
backticked class name in the markdown -- ``ClassName`` or
``ClassName.attr`` in backticks, or either one opening a call or subscript
there: the class must be defined under ``src/repro`` or ``tests/`` and
carry the attribute (its own or an in-repo base's), unless the name is one
of the few builtin/stdlib names in ``STDLIB_NAMES``.

Finally, the docstrings and comments of the ``.py`` files are held to the
same standard: a cited ``*.md`` must name a file in the repo (matched as a
path suffix, so ``ARCHITECTURE.md`` and ``docs/ARCHITECTURE.md`` both
pass), and every dotted ``repro.<module>[.<Name>...]`` reference must
resolve.

Usage::

    python scripts/check_docs.py [file_or_dir ...]
    # defaults to README.md docs/ for markdown, src benchmarks scripts examples tests for .py
"""

from __future__ import annotations

import ast
import importlib
import io
import re
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target) -- excludes images handled the same.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def _files(arguments: list[str], suffix: str) -> list[Path]:
    files: list[Path] = []
    for argument in arguments:
        path = (REPO_ROOT / argument).resolve()
        if path.is_dir():
            files.extend(sorted(path.rglob(f"*{suffix}")))
        elif path.exists():
            if path.suffix == suffix:
                files.append(path)
        else:
            print(f"error: no such file or directory: {argument}", file=sys.stderr)
            sys.exit(2)
    return files


def markdown_files(arguments: list[str]) -> list[Path]:
    return _files(arguments or ["README.md", "docs"], ".md")


def python_files(arguments: list[str]) -> list[Path]:
    return _files(arguments or ["src", "benchmarks", "scripts", "examples", "tests"], ".py")


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
    for block in PYTHON_BLOCK_RE.findall(text):
        try:
            wanted = [pair for pair in _imports(block) if pair[0].split(".")[0] == "repro"]
        except SyntaxError as exc:
            problems.append(f"import in python block does not parse: {exc}")
            continue
        for module_name, name in wanted:
            if name is None and not resolves(module_name):
                problems.append(f"`import {module_name}` fails: no such module")
            elif name is not None and not resolves(f"{module_name}.{name}"):
                problems.append(f"`from {module_name} import {name}`: no such name")
    return problems


#: A backticked CamelCase class name with at most one attribute, closed by
#: the backtick or opening a call or subscript: `Cluster`,
#: `SimNetwork.send(...)`.  All-caps tokens (`CRASHED`, `BENCHMARK.json`)
#: are not class names.
CLASS_NAME_RE = re.compile(r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?:\.([A-Za-z_]\w*))?(?=[`(\[])")
#: The builtin and stdlib names the markdown may cite.
STDLIB_NAMES = frozenset({"AttributeError", "None", "OrderedDict", "Counter.update"})
#: Where the classes the markdown may name are defined.
CLASS_ROOTS = ("src/repro", "tests", "benchmarks")


def defined_classes() -> dict[str, tuple[set[str], set[str]]]:
    """``name -> (attributes, base names)`` of every class under ``CLASS_ROOTS``.

    Attributes are the class's methods, class-level assignments and every
    ``self.<attr> = ...`` in its methods; same-named classes are merged.
    """
    classes: dict[str, tuple[set[str], set[str]]] = {}
    for root in CLASS_ROOTS:
        for source in sorted((REPO_ROOT / root).rglob("*.py")):
            for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ClassDef):
                    continue
                attributes, bases = classes.setdefault(node.name, (set(), set()))
                bases.update(base.id for base in node.bases if isinstance(base, ast.Name))
                for item in node.body:
                    if isinstance(item, ast.Assign):
                        attributes.update(t.id for t in item.targets if isinstance(t, ast.Name))
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        attributes.add(item.target.id)
                for item in ast.walk(node):
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        attributes.add(item.name)
                    elif (
                        isinstance(item, ast.Attribute)
                        and isinstance(item.ctx, ast.Store)
                        and isinstance(item.value, ast.Name)
                        and item.value.id == "self"
                    ):
                        attributes.add(item.attr)
    return classes


def _has_attribute(classes, name: str, attribute: str) -> bool:
    """Whether class ``name`` or one of its in-repo bases defines ``attribute``."""
    pending, seen = [name], set()
    while pending:
        current = pending.pop()
        if current in seen or current not in classes:
            continue
        seen.add(current)
        attributes, bases = classes[current]
        if attribute in attributes:
            return True
        pending.extend(bases)
    return False


def unknown_class_names(text: str, classes) -> list[str]:
    """Backticked class names in ``text`` that no in-repo class (or attribute) backs."""
    problems = []
    for name, attribute in sorted(set(CLASS_NAME_RE.findall(text))):
        cited = f"{name}.{attribute}" if attribute else name
        if cited in STDLIB_NAMES:
            continue
        if name not in classes:
            problems.append(f"names `{cited}`, but no class {name} is defined under "
                            f"{', '.join(CLASS_ROOTS)}")
        elif attribute and not _has_attribute(classes, name, attribute):
            problems.append(f"names `{cited}`, but class {name} has no attribute {attribute}")
    return problems


#: A cited markdown file name, optionally with a relative path.
MD_CITATION_RE = re.compile(r"[\w./-]*\w\.md\b")
#: A dotted reference into the package: ``repro.<module>[.<Name>...]``.
DOTTED_RE = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def prose(source: str) -> str:
    """The docstrings and comments of one python source file, joined."""
    tree = ast.parse(source)
    parts = [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    parts.extend(
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    )
    return "\n".join(parts)


def resolves(dotted: str) -> bool:
    """Whether a dotted ``repro.<module>[.<Name>...]`` reference resolves."""
    parts = dotted.split(".")
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        for split in range(len(parts), 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            for name in parts[split:]:
                if not hasattr(target, name):
                    return False
                target = getattr(target, name)
            return True
        return False
    finally:
        sys.path.pop(0)


def stale_citations(text: str, repo_files: set[str]) -> list[str]:
    """Cited ``*.md`` files that do not exist and dotted ``repro`` names that do not resolve."""
    problems = []
    for cited in sorted(set(MD_CITATION_RE.findall(text))):
        if not any(path == cited or path.endswith("/" + cited) for path in repo_files):
            problems.append(f"cites {cited}, which is not a file in the repo")
    for dotted in sorted(set(DOTTED_RE.findall(text))):
        if not resolves(dotted):
            problems.append(f"names {dotted}, which does not resolve")
    return problems


def repo_markdown() -> set[str]:
    """Every markdown file in the repo, as a posix path relative to its root."""
    return {
        path.relative_to(REPO_ROOT).as_posix()
        for path in REPO_ROOT.rglob("*.md")
        if ".git" not in path.relative_to(REPO_ROOT).parts
    }


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


#: A row of the rule-catalogue table: the backticked id, then its description.
RULE_ROW_RE = re.compile(r"^\s*\| `([a-z][a-z0-9]*(?:-[a-z0-9]+)+)` \| (.*?) \|\s*$")


def check_lint_rule_docs() -> list[str]:
    """Cross-check the documented rule catalogue against the live rule registry."""
    if not ARCHITECTURE_MD.exists():
        return [f"{ARCHITECTURE_MD.relative_to(REPO_ROOT)}: file missing"]
    section = static_analysis_section(ARCHITECTURE_MD.read_text(encoding="utf-8"))
    if section is None:
        return [
            f"{ARCHITECTURE_MD.relative_to(REPO_ROOT)}: "
            f'no "{STATIC_ANALYSIS_HEADING}" section (rule catalogue lives there)'
        ]
    return rule_catalogue_problems(section)


def rule_catalogue_problems(section: str) -> list[str]:
    """Hold the Static analysis ``section`` to ``repro.lint.rules.RULES``.

    Every registered rule id is documented and every id in the catalogue
    table is registered; the table lists the rows in ``RULES`` order, and
    each description opens with its row's ``title`` (backticks ignored).
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.lint.rules import RULES
    finally:
        sys.path.pop(0)

    documented = {token for token in RULE_ID_RE.findall(section) if token in RULES}
    # Hyphenated backticked tokens in the rule-catalogue table column must be
    # real rule ids; elsewhere in the section prose they may be ordinary
    # hyphenated identifiers, so only the table is strict.
    rows = [row.groups() for row in map(RULE_ROW_RE.match, section.splitlines()) if row]
    problems = []
    for rule_id in sorted(set(RULES) - documented):
        problems.append(
            f"docs/ARCHITECTURE.md: lint rule `{rule_id}` is registered in "
            "repro.lint.rules.RULES but missing from the Static analysis section"
        )
    for token in sorted({rule_id for rule_id, _ in rows} - set(RULES)):
        problems.append(
            f"docs/ARCHITECTURE.md: Static analysis section documents `{token}` "
            "but repro.lint.rules.RULES has no such rule"
        )
    listed = [rule_id for rule_id, _ in rows if rule_id in RULES]
    if listed != [rule_id for rule_id in RULES if rule_id in listed]:
        problems.append(
            f"docs/ARCHITECTURE.md: rule catalogue lists {', '.join(listed)}; "
            f"repro.lint.rules.RULES orders them {', '.join(r for r in RULES if r in listed)}"
        )
    for rule_id, description in rows:
        title = RULES[rule_id].title if rule_id in RULES else None
        if title is not None and not description.replace("`", "").startswith(title):
            problems.append(
                f"docs/ARCHITECTURE.md: rule catalogue row `{rule_id}` does not open "
                f"with its title {title!r}"
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
    sources = python_files(arguments)
    problems = [problem for markdown in files for problem in check_file(markdown)]
    problems.extend(
        f"{markdown.relative_to(REPO_ROOT)}: {problem}"
        for markdown in files
        for problem in unresolved_imports(markdown.read_text(encoding="utf-8"))
    )
    classes = defined_classes()
    problems.extend(
        f"{markdown.relative_to(REPO_ROOT)}: {problem}"
        for markdown in files
        for problem in unknown_class_names(markdown.read_text(encoding="utf-8"), classes)
    )
    cited = repo_markdown()
    problems.extend(
        f"{source.relative_to(REPO_ROOT)}: {problem}"
        for source in sources
        for problem in stale_citations(prose(source.read_text(encoding="utf-8")), cited)
    )
    problems.extend(check_lint_rule_docs())
    problems.extend(check_knob_table_docs())
    if ARCHITECTURE_MD.exists():  # a missing file is already reported above
        problems.extend(trigger_table_problems(ARCHITECTURE_MD.read_text(encoding="utf-8")))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {len(files)} markdown and {len(sources)} python file(s): "
          f"{'OK' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
