"""The repo-specific rule set: the determinism contract, statically enforced.

Each rule encodes one clause of the determinism contract in
``docs/ARCHITECTURE.md`` (or one of the PR-4/PR-5 performance conventions)
as an AST check.  The catalogue is the ``RULES`` table at the bottom, one
row per rule; ``scripts/check_docs.py`` holds the rule table in the
architecture doc to it (ids, order and titles) so the two cannot drift.

Scoping: rules see paths relative to the ``repro`` package root
(``sim/metrics.py``), so they apply identically to the real tree and to the
synthetic fixture files the tests feed through
:meth:`repro.lint.core.LintEngine.lint_source`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.core import PARSE_ERROR, FileContext, Rule
from repro.lint.counters import is_known_metric, is_known_replica_counter

# ---------------------------------------------------------------- helpers

#: Directories whose iteration order can leak into event order (the
#: simulation stack) or into recorded verdicts (the checkers).
SIM_SCOPE: Tuple[str, ...] = (
    "protocol", "paxos", "epaxos", "overlay", "quorum",
    "net", "sim", "cluster", "statemachine", "checkers",
)


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _qualified(ctx: FileContext, node: ast.AST) -> Optional[str]:
    """The import-resolved name of a Name/Attribute chain, else None.

    The chain's root goes through the file's import table; a root that no
    import binds is taken as a builtin (``hash`` -> ``builtins.hash``).
    """
    dotted = _dotted_name(node)
    if dotted is None:
        return None
    root, dot, rest = dotted.partition(".")
    return ctx.imports.get(root, f"builtins.{root}") + dot + rest


def _call_func_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dataclass_with(node: ast.ClassDef, flag: str) -> List[ast.Call]:
    """The ``@dataclass(...)`` decorators of ``node`` that pass ``flag=True``."""
    return [
        decorator
        for decorator in node.decorator_list
        if isinstance(decorator, ast.Call)
        and _dotted_name(decorator.func) in ("dataclass", "dataclasses.dataclass")
        and any(
            keyword.arg == flag
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in decorator.keywords
        )
    ]


# ------------------------------------------------------------ no-wall-clock

#: Qualified names of every wall-clock read; the one table serves both
#: ``time.monotonic()`` and a from-imported ``monotonic()``.
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
}


def _check_wall_clock(ctx: FileContext) -> None:
    """Contract clause 1: time is the simulator's virtual clock."""
    for node in ast.walk(ctx.tree):
        is_name = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        if is_name or isinstance(node, ast.Attribute):
            resolved = _qualified(ctx, node)
            if resolved in _WALL_CLOCK:
                suffix = " (from-import)" if is_name else ""
                ctx.report(node, f"wall-clock read {resolved}(){suffix}")


# ------------------------------------------------------ no-unseeded-random

_RANDOM_ALLOWED = {"Random", "SystemRandom"}


def _check_unseeded_random(ctx: FileContext) -> None:
    """Contract clause 2: all randomness flows through named seeded streams."""
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and ctx.imports.get(node.value.id) == "random"
            and node.attr not in _RANDOM_ALLOWED
        ):
            ctx.report(node, f"global random-module state used: random.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "random" and not node.level:
            for alias in node.names:
                if alias.name not in _RANDOM_ALLOWED:
                    ctx.report(
                        node, f"from random import {alias.name} binds global random state"
                    )


# -------------------------------------------------- no-unordered-iteration

#: Calls whose result does not depend on argument order (for a pure
#: element function), so feeding them an unordered iterable is safe.
_SAFE_CONSUMERS = {
    "sorted", "min", "max", "sum", "len", "set", "frozenset", "dict", "any", "all", "Counter",
}

#: ``d.update(view)`` only merges, so a dict view may feed it as well.
_VIEW_CONSUMERS = _SAFE_CONSUMERS | {"update"}

#: Calls that *iterate* their argument into an ordered result, so feeding
#: them a set leaks its hash order.
_ORDER_LEAKING_CONSUMERS = {"list", "tuple", "enumerate", "iter", "reversed", "join"}

_DICT_VIEWS = {"keys", "values", "items"}

_SET_TYPES = ("Set", "FrozenSet", "set", "frozenset", "typing.Set", "typing.FrozenSet")


def _is_set_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_set_annotation(annotation: ast.AST) -> bool:
    # Unwrap Optional[...] one level; then the outermost type must be a
    # set.  Dict[..., Set[...]] deliberately does NOT mark the name.
    if isinstance(annotation, ast.Subscript):
        root = _dotted_name(annotation.value)
        if root in ("Optional", "typing.Optional"):
            return _is_set_annotation(annotation.slice)
        return root in _SET_TYPES
    return _dotted_name(annotation) in _SET_TYPES


def _scope_of(node: ast.AST, ctx: FileContext) -> int:
    """``id`` of the innermost function enclosing ``node`` (or of the module)."""
    node = ctx.parent(node)
    while node is not None and not isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    ):
        node = ctx.parent(node)
    return id(ctx.tree if node is None else node)


def _set_bindings(ctx: FileContext) -> Tuple[Set[Tuple[int, str]], Set[str]]:
    """Names (per function scope) and ``self.<attr>``s that hold a set.

    Names are tracked per enclosing function scope: ``executed`` being a
    set in one checker must not taint a list named ``executed`` in
    another.  ``self.<attr>`` assignments stay file-wide (class state).
    """
    names: Set[Tuple[int, str]] = set()
    attrs: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.arg):
            if node.annotation is not None and _is_set_annotation(node.annotation):
                names.add((_scope_of(node, ctx), node.arg))
            continue
        if isinstance(node, ast.Assign) and _is_set_value(node.value):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and (
            _is_set_annotation(node.annotation)
            or (node.value is not None and _is_set_value(node.value))
        ):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add((_scope_of(node, ctx), target.id))
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return names, attrs


def _fed_to(node: ast.AST, ctx: FileContext, consumers: Set[str]) -> bool:
    """True when ``node`` is a positional argument of a call to ``consumers``."""
    consumer = ctx.parent(node)
    return (
        isinstance(consumer, ast.Call)
        and node in consumer.args
        and _call_func_name(consumer.func) in consumers
    )


def _view_consumed_safely(view: ast.Call, ctx: FileContext) -> bool:
    parent = ctx.parent(view)
    if isinstance(parent, ast.Compare) and view in parent.comparators:
        return all(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops)
    if isinstance(parent, ast.comprehension) and parent.iter is view:
        owner = ctx.parent(parent)
        if isinstance(owner, ast.SetComp):
            return True  # result is a set; no order to leak
        return isinstance(owner, (ast.ListComp, ast.GeneratorExp)) and _fed_to(
            owner, ctx, _SAFE_CONSUMERS
        )
    return _fed_to(view, ctx, _VIEW_CONSUMERS)


def _check_unordered_iteration(ctx: FileContext) -> None:
    """Contract clause 3: decisions never ride on set/hash iteration order."""
    set_names, set_attrs = _set_bindings(ctx)

    def is_set(node: ast.AST) -> bool:
        if _is_set_value(node):
            return True
        if isinstance(node, ast.Name):
            return (_scope_of(node, ctx), node.id) in set_names
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.value.id == "self" and node.attr in set_attrs
        return False

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _DICT_VIEWS
                and not node.args
                and not node.keywords
            ):
                if not _view_consumed_safely(node, ctx):
                    owner = _dotted_name(func.value) or "<expr>"
                    ctx.report(
                        node,
                        f"iteration order of {owner}.{func.attr}() feeds an ordered "
                        f"result; sort it or justify insertion order",
                    )
                continue
            # A set handed to an order-leaking consumer (list(s), "".join(s)...).
            name = _call_func_name(func)
            if name in _ORDER_LEAKING_CONSUMERS:
                for arg in node.args:
                    if is_set(arg):
                        ctx.report(node, f"{name}(...) materialises a set in hash order")
        elif isinstance(node, ast.For):
            if is_set(node.iter):
                ctx.report(node.iter, "for-loop over a set iterates in hash order")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            if isinstance(node, ast.DictComp) or not _fed_to(node, ctx, _SAFE_CONSUMERS):
                for generator in node.generators:
                    if is_set(generator.iter):
                        ctx.report(
                            generator.iter,
                            "comprehension over a set builds an ordered result in "
                            "hash order",
                        )


# -------------------------------------------------------------- no-hash-order


def _check_hash_order(ctx: FileContext) -> None:
    """Builtin ``hash()`` output must never shape simulation behaviour."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and _qualified(ctx, node.func) == "builtins.hash":
            ctx.report(node, "builtin hash() is process-salted for str/bytes keys")


# ---------------------------------------------------------- wire-type-hygiene

#: Constructor/field names that mean "this message carries variable-size
#: data" and therefore must be priced through ``payload_bytes``.
_PAYLOAD_FIELDS = {
    "command", "commands", "value", "values", "result", "results",
    "responses", "inner", "accepted", "payload", "data",
}

_MESSAGE_BASES = {"Message", "OverlayMessage"}

#: The commands messages wrap cache their size too; only the size-memo
#: checks apply there (the module also holds an enum and result types).
_COMMAND_MODULE = "statemachine/command.py"


def _stores_payload_bytes(function: ast.FunctionDef) -> bool:
    """True when ``function`` assigns ``self.payload_bytes``."""
    return any(
        isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr == "payload_bytes"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        for node in ast.walk(function)
    )


@dataclass
class _ClassInfo:
    node: ast.ClassDef
    bases: List[str]
    has_slots: bool
    #: payload_bytes is defined here: filled in __init__, a property, or
    #: a class-level constant.
    prices_payload: bool = False
    fields: Set[str] = field(default_factory=set)
    #: "payload_bytes" is a declared slot, i.e. the size is cached.
    size_slot: bool = False
    size_in_init: bool = False
    #: Methods other than the constructor that write self.payload_bytes.
    lazy_size_writers: List[ast.FunctionDef] = field(default_factory=list)
    #: A plain (non-property) ``def payload_bytes`` -- the retired API.
    size_method: Optional[ast.FunctionDef] = None


def _class_info(node: ast.ClassDef) -> _ClassInfo:
    info = _ClassInfo(
        node,
        [base for base in map(_dotted_name, node.bases) if base],
        has_slots=bool(_dataclass_with(node, "slots")),
    )
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "__slots__":
                    info.has_slots = True
                    info.size_slot = any(
                        isinstance(element, ast.Constant)
                        and element.value == "payload_bytes"
                        for element in getattr(statement.value, "elts", ())
                    )
                elif target.id == "payload_bytes":
                    info.prices_payload = True
        elif isinstance(statement, ast.AnnAssign):
            if isinstance(statement.target, ast.Name):
                if statement.target.id == "__slots__":
                    info.has_slots = True
                else:
                    info.fields.add(statement.target.id)
        elif isinstance(statement, ast.FunctionDef):
            if statement.name == "payload_bytes":
                if any(_dotted_name(d) == "property" for d in statement.decorator_list):
                    info.prices_payload = True
                else:
                    info.size_method = statement
            elif statement.name == "__init__":
                info.fields.update(
                    arg.arg for arg in statement.args.args if arg.arg != "self"
                )
                if _stores_payload_bytes(statement):
                    info.size_in_init = True
                    info.prices_payload = True
            elif _stores_payload_bytes(statement):
                info.lazy_size_writers.append(statement)
    return info


def _lineage(classes: Dict[str, _ClassInfo], name: str) -> Iterator[str]:
    """``name`` and every base reachable from it through this file's classes."""
    seen: Set[str] = set()
    stack = [name]
    while stack:
        name = stack.pop()
        yield name
        if name in classes and name not in seen:
            seen.add(name)
            stack.extend(classes[name].bases)


def _check_wire_types(ctx: FileContext) -> None:
    """Message conventions: hand-slotted, priced, and sized at construction."""
    classes = {
        node.name: _class_info(node)
        for node in ctx.tree.body
        if isinstance(node, ast.ClassDef)
    }
    wire_module = ctx.relpath != _COMMAND_MODULE
    for name, info in classes.items():
        if wire_module and not info.has_slots:
            ctx.report(info.node, f"class {name} in a wire-type module has no __slots__")
        if info.size_method is not None:
            ctx.report(
                info.size_method,
                f"{name}.payload_bytes is a method; sizes are read as an "
                f"attribute (fill self.payload_bytes in __init__, or make "
                f"it a property)",
            )
        if info.size_slot and not info.size_in_init:
            ctx.report(
                info.node,
                f"{name} declares a payload_bytes slot but does not fill "
                f"it in __init__",
            )
        for writer in info.lazy_size_writers:
            ctx.report(
                writer,
                f"{name}.{writer.name} writes self.payload_bytes outside "
                f"__init__; a lazily filled size races between the nodes "
                f"sharing the message",
            )
        if not wire_module or ctx.relpath == "net/message.py":
            continue  # the base classes define the convention itself
        payload_fields = sorted(info.fields & _PAYLOAD_FIELDS)
        lineage = list(_lineage(classes, name))
        if (
            payload_fields
            and any(base in _MESSAGE_BASES for base in lineage)
            and not any(classes[n].prices_payload for n in lineage if n in classes)
        ):
            ctx.report(
                info.node,
                f"message {name} carries {', '.join(payload_fields)} but "
                f"does not define payload_bytes; SizeModel will price "
                f"it as header-only",
            )


# ------------------------------------------------ no-frozen-dataclass-hot-path


def _check_frozen_dataclass(ctx: FileContext) -> None:
    """Frozen dataclasses are banned in the hot message/event modules."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            for decorator in _dataclass_with(node, "frozen"):
                ctx.report(
                    decorator, f"frozen dataclass {node.name} in a hot wire-type module"
                )


# ------------------------------------------------------------ scenario-hygiene


def _check_scenarios(ctx: FileContext) -> None:
    """Every canned scenario must be checkable and hold a liveness floor."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or _call_func_name(node.func) != "Scenario":
            continue
        keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        name_node = keywords.get("name")
        label = (
            name_node.value
            if isinstance(name_node, ast.Constant) and isinstance(name_node.value, str)
            else "<scenario>"
        )
        checks = keywords.get("checks")
        if checks is None:
            ctx.report(node, f"scenario {label} does not declare checks explicitly")
        elif isinstance(checks, (ast.Tuple, ast.List)) and not checks.elts:
            ctx.report(node, f"scenario {label} declares empty checks")
        floor = keywords.get("min_completed")
        if floor is None or (
            isinstance(floor, ast.Constant)
            and isinstance(floor.value, int)
            and floor.value <= 0
        ):
            ctx.report(
                node, f"scenario {label} has no positive min_completed liveness floor"
            )
        elif checks is not None and not any(
            isinstance(n, ast.Constant) and n.value == "progress"
            for n in ast.walk(checks)
        ):
            ctx.report(
                node,
                f"scenario {label} sets min_completed but its checks do not "
                f'visibly include "progress" (floor would be inert)',
            )


# -------------------------------------------------------- counter-name-registry


def _check_counter_names(ctx: FileContext) -> None:
    """String-literal metric names must exist in the documented namespace."""
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            continue
        name = node.args[0].value
        method, receiver = node.func.attr, node.func.value
        # A replica (``self`` in protocol code, an overlay's ``host``) takes
        # the short name for both ``count`` and ``counter``.
        is_replica_call = (
            isinstance(receiver, ast.Name) and receiver.id in ("self", "host")
        ) or (isinstance(receiver, ast.Attribute) and receiver.attr == "host")
        if method in ("count", "counter") and is_replica_call:
            if not is_known_replica_counter(name):
                ctx.report(
                    node, f"replica counter {name!r} is not in the documented namespace"
                )
        # Only metric-registry receivers (a name/attribute chain), not
        # arbitrary expressions, to dodge unrelated APIs.
        elif (
            method == "counter"
            and isinstance(receiver, (ast.Name, ast.Attribute))
            and not is_known_metric(name)
        ):
            ctx.report(node, f"metric name {name!r} is not in the documented namespace")


# --------------------------------------------------------- suppression-hygiene


def _check_suppressions(ctx: FileContext) -> None:
    """Suppressions must name a real rule, carry a reason, and still match."""
    for suppression in ctx.suppressions:
        problems = [] if suppression.rules else ["suppression names no rule id"]
        problems += [
            f"suppression names unknown rule {rule_id!r}"
            for rule_id in suppression.rules
            if rule_id not in RULES
        ]
        if not suppression.reason:
            problems.append("suppression has no written reason (reasons are mandatory)")
        if (
            not problems
            and not suppression.used
            and ctx.all_rules_active
            and all(r in ctx.active_rule_ids for r in suppression.rules)
        ):
            problems.append(
                "stale suppression: no finding of "
                f"{', '.join(suppression.rules)} on its target line"
            )
        for problem in problems:
            ctx.report_unsuppressable(suppression.line, problem)


# ------------------------------------------------------------------- registry

_SIM_FILES = tuple(f"{directory}/*" for directory in SIM_SCOPE)

#: The rule catalogue, in execution order.  ``suppression-hygiene`` must run
#: after every other check: it audits whether their suppressions were used.
RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="no-wall-clock",
            title="no wall-clock reads in simulation code",
            contract=(
                "Determinism contract #1: nothing reads the wall clock; virtual "
                "time comes from sim.now / ctx.now only"
            ),
            hint="use the simulator clock (sim.now / ctx.now)",
            check=_check_wall_clock,
        ),
        Rule(
            id="no-unseeded-random",
            title="no module-level random.* calls",
            contract=(
                "Determinism contract #2: randomness comes from sim/rng.py streams "
                "or an explicitly passed random.Random, never the global random "
                "module"
            ),
            hint=(
                "draw from sim.random.stream(<name>) / ctx.rng, or accept a "
                "random.Random parameter"
            ),
            check=_check_unseeded_random,
        ),
        Rule(
            id="no-unordered-iteration",
            title="no unordered iteration where order can leak into event order",
            contract=(
                "Determinism contract #3: iteration orders that feed decisions are "
                "sorted or insertion-ordered, never set-ordered; dict views must be "
                "wrapped in sorted() or carry a written insertion-order "
                "justification"
            ),
            hint=(
                "wrap in sorted(...), consume with an order-insensitive reducer, or "
                "justify insertion order with # lint: ok(no-unordered-iteration) <why>"
            ),
            scope=_SIM_FILES,
            check=_check_unordered_iteration,
        ),
        Rule(
            id="no-hash-order",
            title="no builtin hash() in simulation decisions",
            contract=(
                "Determinism contract #3 corollary: str/bytes hashes are salted per "
                "process (PYTHONHASHSEED), so hash()-derived keys, buckets or sort "
                "orders diverge between the serial and parallel sweep workers"
            ),
            hint="use a keyed deterministic digest (zlib.crc32, hashlib) instead",
            scope=_SIM_FILES,
            check=_check_hash_order,
        ),
        Rule(
            id="wire-type-hygiene",
            title=(
                "wire types declare __slots__, price their payloads, size "
                "themselves in __init__"
            ),
            contract=(
                "PR-4 hot-path rule: every class in a */messages.py is a "
                "hand-slotted plain class; PR-5 sizing rule: a message carrying "
                "variable-size data defines payload_bytes so SizeModel prices it; "
                "PR-15 size-memo rule: a type that caches payload_bytes fills it in "
                "__init__ and nowhere else (messages are shared by reference across "
                "nodes, so a lazily filled slot would be written by whichever node "
                "sizes it first)"
            ),
            hint=(
                "add __slots__ (or dataclass(slots=True)); assign self.payload_bytes "
                "in __init__ (or expose an uncached payload_bytes property) for "
                "payload-carrying messages"
            ),
            scope=("*messages.py", "net/message.py", _COMMAND_MODULE),
            check=_check_wire_types,
        ),
        Rule(
            id="no-frozen-dataclass-hot-path",
            title="no frozen dataclasses in message/event modules",
            contract=(
                "PR-4 hot-path rule: per-message/per-event types are hand-slotted "
                "plain classes (immutable by convention); the frozen-dataclass "
                "constructor is ~2.5x slower on the allocation-heavy paths"
            ),
            hint=(
                "write a plain __slots__ class; suppress only for types allocated "
                "rarely (e.g. once per leader change)"
            ),
            scope=("*messages.py", "net/message.py", "sim/events.py", _COMMAND_MODULE),
            check=_check_frozen_dataclass,
        ),
        Rule(
            id="scenario-hygiene",
            title="library scenarios declare checks and a progress floor",
            contract=(
                "Scenario-library convention: every canned Scenario declares its "
                "checker families explicitly and holds a min_completed liveness "
                "floor wired to the progress check, so 'safe but stuck' regressions "
                "cannot slip into the sweep"
            ),
            hint=(
                'declare checks=(... , "progress") and a calibrated min_completed '
                "(well below the seed's healthy completion count)"
            ),
            scope=("scenarios/library.py",),
            check=_check_scenarios,
        ),
        Rule(
            id="counter-name-registry",
            title="metric name literals match the documented counter namespace",
            contract=(
                "Metrics convention: a typo'd counter records to a fresh name and "
                "silently reads as zero; every literal name must appear in "
                "repro/lint/counters.py, which doubles as the namespace doc"
            ),
            hint="fix the typo, or add the new counter to repro/lint/counters.py",
            check=_check_counter_names,
        ),
        Rule(
            id="suppression-hygiene",
            title="suppression comments are auditable",
            contract=(
                "Suppression policy: # lint: ok(<rule>) <reason> -- the reason is "
                "mandatory, the rule id must exist, and stale suppressions "
                "(matching no finding) are themselves findings"
            ),
            hint="write the reason after the closing paren, or delete the comment",
            check=_check_suppressions,
        ),
        # Reported by the engine itself when ast.parse fails; listed here so
        # the rule catalogue and --rule filtering know the id.
        PARSE_ERROR,
    )
}


def default_rules(only: Optional[List[str]] = None) -> List[Rule]:
    """The checking rows, in table order, optionally restricted to ``only``."""
    unknown = [rule_id for rule_id in only or () if rule_id not in RULES]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
    return [
        rule
        for rule in RULES.values()
        if rule.check is not None and (not only or rule.id in only)
    ]
