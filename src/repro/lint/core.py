"""The engine behind ``repro.lint``: one parse per file, one table of rules.

A rule is a row (:class:`Rule`): its catalogue text, the files it scopes
to, and a ``check(ctx)`` function that walks ``ctx.tree`` itself and
reports :class:`Finding`s through :meth:`FileContext.report`.  The engine
parses each file once, resolves its imports once (``ctx.imports``), runs
every in-scope check, and applies inline suppressions as findings are
reported, so a check never needs to know about them.

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
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Inline suppression comments: ``# lint: ok(rule-id[, rule-id...]) reason``.
SUPPRESSION_RE = re.compile(
    r"#\s*lint:\s*ok\(\s*([A-Za-z0-9_,\s-]*?)\s*\)\s*(.*?)\s*$"
)


@dataclass
class Finding:
    """One rule violation: where, what, and how to fix it.

    The field order is the key order of ``--json`` output.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass
class Suppression:
    """One parsed ``# lint: ok(...)`` comment."""

    path: str
    line: int  # line the comment sits on
    target_line: int  # line whose findings it suppresses
    rules: Tuple[str, ...]
    reason: str
    used: bool = False


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


class Rule(NamedTuple):
    """One row of the rule table.

    ``contract`` names the clause of the determinism contract
    (``docs/ARCHITECTURE.md``) the rule encodes -- it is what the rule
    catalogue documents.  ``scope`` holds ``fnmatch`` patterns over the
    package-relative path; an empty scope means every file.  ``check`` is
    None only for ``parse-error``, which the engine itself reports.
    """

    id: str
    title: str
    contract: str
    hint: str
    scope: Tuple[str, ...] = ()
    check: Optional[Callable[["FileContext"], None]] = None


#: The row of the one rule the engine reports itself, when ``ast.parse``
#: fails; ``RULES`` lists this same row so the catalogue and ``--rule``
#: filtering know the id, and every parse-error finding carries its hint.
PARSE_ERROR = Rule(
    id="parse-error",
    title="file does not parse",
    contract="Framework precondition: repro.lint needs a valid AST",
    hint="fix the syntax error",
)


def import_table(tree: ast.AST) -> Dict[str, str]:
    """Local name -> qualified name for every import in the file.

    ``import time as clock`` binds ``clock -> time``; ``from time import
    monotonic`` binds ``monotonic -> time.monotonic``; ``import a.b`` binds
    ``a -> a``.  Relative imports keep their leading dots, so they never
    alias a standard-library module.
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    root = alias.name.partition(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                table[alias.asname or alias.name] = f"{module}.{alias.name}"
    return table


class FileContext:
    """Everything a check may need while walking one file."""

    def __init__(
        self,
        relpath: str,
        source: str,
        tree: ast.AST,
        active_rule_ids: Tuple[str, ...] = (),
        all_rules_active: bool = True,
    ) -> None:
        self.relpath = relpath
        self.tree = tree
        self.imports = import_table(tree)
        self.findings: List[Finding] = []
        self.suppressions = parse_suppressions(relpath, source)
        self.active_rule_ids = active_rule_ids
        self.all_rules_active = all_rules_active
        #: The row whose check is running; ``report`` files findings under it.
        self.rule: Optional[Rule] = None
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    def report(self, node: ast.AST, message: str) -> None:
        """Report a finding at ``node``, honouring inline suppressions."""
        line = getattr(node, "lineno", 1)
        for suppression in self.suppressions:
            if suppression.target_line == line and self.rule.id in suppression.rules:
                suppression.used = True
                return
        self.report_unsuppressable(line, message, getattr(node, "col_offset", 0))

    def report_unsuppressable(self, line: int, message: str, col: int = 0) -> None:
        """Report a finding that inline comments cannot silence.

        Used by ``suppression-hygiene``: a reason-less suppression must not
        be able to suppress the report about itself.
        """
        self.findings.append(
            Finding(self.rule.id, self.relpath, line, col, message, self.rule.hint)
        )

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        if self._parents is None:
            self._parents = {
                child: parent
                for parent in ast.walk(self.tree)
                for child in ast.iter_child_nodes(parent)
            }
        return self._parents.get(node)


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
    """Runs a set of rule rows over files, one parse per file."""

    def __init__(self, rules: Sequence[Rule], all_rules_active: bool = True) -> None:
        self.rules = list(rules)
        self.all_rules_active = all_rules_active
        self.files_checked = 0

    def lint_source(self, source: str, relpath: str) -> FileContext:
        try:
            tree = ast.parse(source, filename=relpath)
        except SyntaxError as error:
            ctx = FileContext(relpath, "", ast.Module(body=[], type_ignores=[]))
            ctx.findings.append(
                Finding(
                    rule=PARSE_ERROR.id,
                    path=relpath,
                    line=error.lineno or 1,
                    col=error.offset or 0,
                    message=f"file does not parse: {error.msg}",
                    hint=PARSE_ERROR.hint,
                )
            )
            return ctx
        ctx = FileContext(
            relpath, source, tree, tuple(rule.id for rule in self.rules), self.all_rules_active
        )
        # Row order matters once: suppression-hygiene runs last, because it
        # audits whether the other rules' suppressions were used.
        for rule in self.rules:
            if rule.check is None:
                continue
            if not rule.scope or any(fnmatchcase(relpath, glob) for glob in rule.scope):
                ctx.rule = rule
                rule.check(ctx)
        ctx.findings.sort(key=Finding.sort_key)
        return ctx

    def lint_paths(self, paths: Sequence[Path]) -> Tuple[List[Finding], List[Suppression]]:
        files: List[Path] = []
        for path in map(Path, paths):
            if path.is_dir():
                files += sorted(p for p in path.rglob("*.py") if "__pycache__" not in p.parts)
            elif path.suffix == ".py":
                files.append(path)
        findings: List[Finding] = []
        suppressions: List[Suppression] = []
        for path in files:
            ctx = self.lint_source(path.read_text(encoding="utf-8"), repro_relpath(path))
            self.files_checked += 1
            findings.extend(ctx.findings)
            suppressions.extend(ctx.suppressions)
        findings.sort(key=Finding.sort_key)
        return findings, suppressions
