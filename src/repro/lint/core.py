"""The AST-walker framework behind ``repro.lint``.

One parse per file: the engine reads a source file, parses it once, links
parent pointers, and hands every node to each subscribed rule (a rule
subscribes by defining ``visit_<NodeType>`` methods).  Rules report
:class:`Finding`s through the :class:`FileContext`; the engine applies
inline suppressions as findings are reported, so a rule never needs to
know about them.

Suppressions are inline and auditable::

    groups[hash(key) % n].append(member)  # lint: ok(no-hash-order) <reason>

The comment suppresses the named rule(s) on its own line, or on the next
line when the comment stands alone.  The reason text is mandatory --
``suppression-hygiene`` (a rule like any other) reports reason-less,
unknown-rule and stale suppressions, so the suppression inventory stays a
reviewable list of conscious decisions (``--list-suppressions`` prints it).

File paths are reported relative to the ``repro`` package root
(``sim/metrics.py``, not ``src/repro/sim/metrics.py``) so rule scoping is
stable no matter where the tree is checked out; :func:`lint_source` takes
the relative path directly, which is how the fixture tests exercise rules
on synthetic snippets.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Inline suppression comments: ``# lint: ok(rule-id[, rule-id...]) reason``.
SUPPRESSION_RE = re.compile(
    r"#\s*lint:\s*ok\(\s*([A-Za-z0-9_,\s-]*?)\s*\)\s*(.*?)\s*$"
)


class Finding:
    """One rule violation: where, what, and how to fix it."""

    __slots__ = ("rule", "path", "line", "col", "message", "hint")

    def __init__(
        self,
        rule: str,
        path: str,
        line: int,
        col: int,
        message: str,
        hint: str = "",
    ) -> None:
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        self.hint = hint

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Finding({self.rule} {self.path}:{self.line} {self.message!r})"


class Suppression:
    """One parsed ``# lint: ok(...)`` comment."""

    __slots__ = ("path", "line", "target_line", "rules", "reason", "used")

    def __init__(
        self, path: str, line: int, target_line: int, rules: Tuple[str, ...], reason: str
    ) -> None:
        self.path = path
        self.line = line           # line the comment sits on
        self.target_line = target_line  # line whose findings it suppresses
        self.rules = rules
        self.reason = reason
        self.used = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rules": list(self.rules),
            "reason": self.reason,
            "used": self.used,
        }


def parse_suppressions(path: str, source: str) -> List[Suppression]:
    """Extract every suppression comment from ``source`` (1-indexed targets).

    Real COMMENT tokens only -- a ``# lint: ok(...)`` *inside a string*
    (docstring examples, the hint text of the rule itself) is not a
    suppression.
    """
    suppressions: List[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return suppressions
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = SUPPRESSION_RE.search(token.string)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        reason = match.group(2).strip()
        line = token.start[0]
        comment_only = token.line[: token.start[1]].strip() == ""
        target = line + 1 if comment_only else line
        suppressions.append(Suppression(path, line, target, rules, reason))
    return suppressions


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and define ``visit_<NodeType>``
    methods; the engine calls each exactly once per matching node, in a
    single walk of the file.  ``contract`` names the clause of the
    determinism contract (``docs/ARCHITECTURE.md``) the rule encodes --
    it is what the rule catalogue documents.
    """

    id: str = ""
    title: str = ""
    contract: str = ""
    hint: str = ""

    def applies(self, relpath: str) -> bool:
        """Whether this rule runs on the file at ``relpath`` at all."""
        return True

    def begin_file(self, ctx: "FileContext") -> None:
        """Per-file setup (import maps, class tables); runs before the walk."""

    def end_file(self, ctx: "FileContext") -> None:
        """Per-file teardown; runs after the walk."""


class FileContext:
    """Everything a rule may need while walking one file."""

    __slots__ = (
        "path",
        "relpath",
        "source",
        "tree",
        "findings",
        "suppressions",
        "active_rule_ids",
        "all_rules_active",
        "_suppressions_by_line",
    )

    def __init__(
        self,
        path: str,
        relpath: str,
        source: str,
        tree: ast.AST,
        active_rule_ids: Tuple[str, ...],
        all_rules_active: bool,
    ) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.findings: List[Finding] = []
        self.suppressions = parse_suppressions(relpath, source)
        self.active_rule_ids = active_rule_ids
        self.all_rules_active = all_rules_active
        by_line: Dict[int, List[Suppression]] = {}
        for suppression in self.suppressions:
            by_line.setdefault(suppression.target_line, []).append(suppression)
        self._suppressions_by_line = by_line

    # ------------------------------------------------------------- reporting
    def report(
        self, rule: Rule, node: ast.AST, message: str, hint: Optional[str] = None
    ) -> None:
        """Report a finding at ``node``, honouring inline suppressions."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        for suppression in self._suppressions_by_line.get(line, ()):
            if rule.id in suppression.rules:
                suppression.used = True
                return
        self.findings.append(
            Finding(
                rule=rule.id,
                path=self.relpath,
                line=line,
                col=col,
                message=message,
                hint=rule.hint if hint is None else hint,
            )
        )

    def report_unsuppressable(
        self, rule: Rule, line: int, message: str, hint: Optional[str] = None
    ) -> None:
        """Report a finding that inline comments cannot silence.

        Used by ``suppression-hygiene``: a reason-less suppression must not
        be able to suppress the report about itself.
        """
        self.findings.append(
            Finding(
                rule=rule.id,
                path=self.relpath,
                line=line,
                col=0,
                message=message,
                hint=rule.hint if hint is None else hint,
            )
        )

    # ------------------------------------------------------------ navigation
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return getattr(node, "_lint_parent", None)

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)


def _link_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]


def repro_relpath(path: Path) -> str:
    """Path relative to the innermost ``repro`` package directory, if any.

    ``src/repro/sim/metrics.py`` -> ``sim/metrics.py``; a file outside any
    ``repro`` directory keeps its name-only path, which matches no scoped
    rule (scoped rules see paths rooted at the package).
    """
    parts = path.as_posix().split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1:])
    return path.name


class LintEngine:
    """Runs a set of rules over files, one parse and one walk per file."""

    def __init__(self, rules: Sequence[Rule], all_rules_active: bool = True) -> None:
        self.rules = list(rules)
        self.all_rules_active = all_rules_active
        self.files_checked = 0

    # ----------------------------------------------------------- single file
    def lint_source(
        self, source: str, relpath: str, path: Optional[str] = None
    ) -> FileContext:
        active_ids = tuple(rule.id for rule in self.rules)
        try:
            tree = ast.parse(source, filename=relpath)
        except SyntaxError as error:
            ctx = FileContext(
                path or relpath, relpath, "", ast.Module(body=[], type_ignores=[]),
                active_ids, self.all_rules_active,
            )
            ctx.findings.append(
                Finding(
                    rule="parse-error",
                    path=relpath,
                    line=error.lineno or 1,
                    col=error.offset or 0,
                    message=f"file does not parse: {error.msg}",
                    hint="repro.lint needs a syntactically valid tree",
                )
            )
            return ctx
        _link_parents(tree)
        ctx = FileContext(
            path or relpath, relpath, source, tree, active_ids, self.all_rules_active
        )
        applicable = [rule for rule in self.rules if rule.applies(relpath)]
        if not applicable:
            return ctx
        for rule in applicable:
            rule.begin_file(ctx)
        dispatch: Dict[str, List] = {}
        for rule in applicable:
            for name in dir(type(rule)):
                if name.startswith("visit_"):
                    dispatch.setdefault(name[len("visit_"):], []).append(
                        getattr(rule, name)
                    )
        if dispatch:
            for node in ast.walk(tree):
                handlers = dispatch.get(type(node).__name__)
                if handlers:
                    for handler in handlers:
                        handler(node, ctx)
        for rule in applicable:
            rule.end_file(ctx)
        ctx.findings.sort(key=Finding.sort_key)
        return ctx

    def lint_file(self, path: Path) -> FileContext:
        source = Path(path).read_text(encoding="utf-8")
        return self.lint_source(source, repro_relpath(Path(path)), str(path))

    # ------------------------------------------------------------ many files
    def lint_paths(self, paths: Sequence[Path]) -> Tuple[List[Finding], List[Suppression]]:
        findings: List[Finding] = []
        suppressions: List[Suppression] = []
        for path in iter_python_files(paths):
            ctx = self.lint_file(path)
            self.files_checked += 1
            findings.extend(ctx.findings)
            suppressions.extend(ctx.suppressions)
        findings.sort(key=Finding.sort_key)
        return findings, suppressions


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            yield path
