"""Tests for ``repro.lint``: every rule fires on a minimal bad snippet and
stays silent on the idiomatic good form, suppressions round-trip, and the
real tree self-checks clean."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintEngine, default_rules, parse_suppressions, repro_relpath
from repro.lint.counters import METRIC_NAME_PREFIXES, METRIC_NAMES, REPLICA_COUNTERS
from repro.lint.rules import RULES, SIM_SCOPE

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def lint_snippet(source, relpath="sim/example.py", rules=None):
    engine = LintEngine(default_rules(rules), all_rules_active=rules is None)
    return engine.lint_source(textwrap.dedent(source), relpath)


def rule_ids(ctx):
    return sorted({finding.rule for finding in ctx.findings})


# ------------------------------------------------------------- no-wall-clock
class TestNoWallClock:
    def test_fires_on_time_time(self):
        ctx = lint_snippet(
            """
            import time
            t = time.time()
            """
        )
        assert rule_ids(ctx) == ["no-wall-clock"]
        assert ctx.findings[0].line == 3

    def test_fires_on_aliased_import(self):
        ctx = lint_snippet(
            """
            import time as clock
            t = clock.perf_counter()
            """
        )
        assert rule_ids(ctx) == ["no-wall-clock"]

    def test_fires_on_from_import(self):
        ctx = lint_snippet(
            """
            from time import monotonic
            t = monotonic()
            """
        )
        assert any(f.rule == "no-wall-clock" and f.line == 3 for f in ctx.findings)

    @pytest.mark.parametrize(
        "imported, called, qualified",
        [
            ("localtime", "localtime", "time.localtime"),
            ("gmtime as g", "g", "time.gmtime"),
            ("clock_gettime", "clock_gettime", "time.clock_gettime"),
        ],
    )
    def test_fires_on_every_from_imported_clock(self, imported, called, qualified):
        # One table of clock reads serves the module and the from-import
        # forms, so no clock can be banned in one and missed in the other.
        ctx = lint_snippet(f"from time import {imported}\nt = {called}(0)\n")
        assert [(f.rule, f.line, f.message) for f in ctx.findings] == [
            ("no-wall-clock", 2, f"wall-clock read {qualified}() (from-import)")
        ]

    def test_fires_on_datetime_now(self):
        ctx = lint_snippet(
            """
            import datetime
            stamp = datetime.datetime.now()
            """
        )
        assert rule_ids(ctx) == ["no-wall-clock"]

    def test_silent_on_sim_clock(self):
        ctx = lint_snippet(
            """
            def handler(self):
                return self.ctx.now + self.config.timeout
            """
        )
        assert ctx.findings == []

    def test_silent_on_time_sleep(self):
        # sleep is banned by idiom elsewhere but is not a clock *read*.
        ctx = lint_snippet(
            """
            import time
            time.sleep(0.1)
            """
        )
        assert ctx.findings == []

    def test_bench_is_not_exempt(self):
        # bench/ is records + formatters; nothing there may read a clock.
        ctx = lint_snippet(
            """
            import time
            t = time.perf_counter()
            """,
            relpath="bench/harness.py",
        )
        assert rule_ids(ctx) == ["no-wall-clock"]


# --------------------------------------------------------- no-unseeded-random
class TestNoUnseededRandom:
    def test_fires_on_module_level_call(self):
        ctx = lint_snippet(
            """
            import random
            x = random.random()
            """
        )
        assert rule_ids(ctx) == ["no-unseeded-random"]

    def test_fires_on_from_import(self):
        ctx = lint_snippet("from random import choice\n")
        assert rule_ids(ctx) == ["no-unseeded-random"]

    def test_silent_on_random_random_class(self):
        ctx = lint_snippet(
            """
            import random
            rng = random.Random(7919)
            x = rng.random()
            """
        )
        assert ctx.findings == []

    def test_silent_on_passed_rng_annotation(self):
        ctx = lint_snippet(
            """
            import random

            def jitter(rng: random.Random) -> float:
                return rng.uniform(0.0, 1.0)
            """
        )
        assert ctx.findings == []


# ----------------------------------------------------- no-unordered-iteration
class TestNoUnorderedIteration:
    def test_fires_on_dict_items_loop(self):
        ctx = lint_snippet(
            """
            def fan_out(self, peers):
                for peer, addr in peers.items():
                    self.send(peer, addr)
            """,
            relpath="overlay/example.py",
        )
        assert rule_ids(ctx) == ["no-unordered-iteration"]

    def test_silent_on_sorted_items(self):
        ctx = lint_snippet(
            """
            def fan_out(self, peers):
                for peer, addr in sorted(peers.items()):
                    self.send(peer, addr)
            """,
            relpath="overlay/example.py",
        )
        assert ctx.findings == []

    def test_silent_on_order_insensitive_reducers(self):
        ctx = lint_snippet(
            """
            def tally(counters):
                total = sum(counters.values())
                biggest = max(counters.values())
                as_set = set(counters.keys())
                return total, biggest, as_set
            """,
            relpath="sim/example.py",
        )
        assert ctx.findings == []

    def test_silent_on_membership_test(self):
        ctx = lint_snippet(
            """
            def has(d, k):
                return k in d.keys()
            """,
            relpath="sim/example.py",
        )
        assert ctx.findings == []

    def test_fires_on_set_for_loop(self):
        ctx = lint_snippet(
            """
            def drain(self):
                pending = {1, 2, 3}
                for item in pending:
                    self.emit(item)
            """,
            relpath="net/example.py",
        )
        assert rule_ids(ctx) == ["no-unordered-iteration"]

    def test_fires_on_set_typed_attribute(self):
        ctx = lint_snippet(
            """
            from typing import Set

            class Tracker:
                def __init__(self):
                    self._waiting: Set[int] = set()

                def flush(self):
                    for node in self._waiting:
                        self.send(node)
            """,
            relpath="quorum/example.py",
        )
        assert rule_ids(ctx) == ["no-unordered-iteration"]

    def test_silent_on_sorted_set(self):
        ctx = lint_snippet(
            """
            def drain(self):
                pending = {3, 1, 2}
                for item in sorted(pending):
                    self.emit(item)
            """,
            relpath="net/example.py",
        )
        assert ctx.findings == []

    def test_set_names_are_scoped_per_function(self):
        # ``items`` is a set in one function and a list in another: the
        # list loop must not inherit the set's taint (regression: the real
        # tree's checkers reuse the name ``executed`` both ways).
        ctx = lint_snippet(
            """
            def collector():
                items = {1, 2}
                return sorted(items)

            def orderly():
                items = [1, 2]
                for item in items:
                    yield item
            """,
            relpath="sim/example.py",
        )
        assert ctx.findings == []

    def test_silent_outside_scoped_dirs(self):
        ctx = lint_snippet(
            """
            def fan_out(self, peers):
                for peer, addr in peers.items():
                    self.send(peer, addr)
            """,
            relpath="workload/example.py",
        )
        assert ctx.findings == []


# --------------------------------------------------------------- no-hash-order
class TestNoHashOrder:
    def test_fires_on_builtin_hash(self):
        ctx = lint_snippet(
            """
            def bucket(member, n):
                return hash(member) % n
            """,
            relpath="overlay/example.py",
        )
        assert rule_ids(ctx) == ["no-hash-order"]

    def test_silent_on_crc32(self):
        ctx = lint_snippet(
            """
            import zlib

            def bucket(member, n):
                return zlib.crc32(str(member).encode()) % n
            """,
            relpath="overlay/example.py",
        )
        assert ctx.findings == []

    def test_silent_outside_sim_scope(self):
        ctx = lint_snippet(
            """
            def bucket(member, n):
                return hash(member) % n
            """,
            relpath="analysis/example.py",
        )
        assert ctx.findings == []


# ----------------------------------------------------------- wire-type-hygiene
class TestWireTypeHygiene:
    def test_fires_on_missing_slots(self):
        ctx = lint_snippet(
            """
            class Ping:
                def __init__(self, ballot):
                    self.ballot = ballot
            """,
            relpath="protocol/messages.py",
        )
        assert rule_ids(ctx) == ["wire-type-hygiene"]

    def test_fires_on_unpriced_payload(self):
        ctx = lint_snippet(
            """
            class Message:
                __slots__ = ()

            class Propose(Message):
                __slots__ = ("command",)

                def __init__(self, command):
                    self.command = command
            """,
            relpath="protocol/messages.py",
        )
        findings = [f for f in ctx.findings if "payload_bytes" in f.message]
        assert len(findings) == 1 and findings[0].rule == "wire-type-hygiene"

    def test_silent_on_slotted_and_priced(self):
        ctx = lint_snippet(
            """
            class Message:
                __slots__ = ()

            class Propose(Message):
                __slots__ = ("command", "payload_bytes")

                def __init__(self, command):
                    self.command = command
                    self.payload_bytes = command.payload_bytes
            """,
            relpath="protocol/messages.py",
        )
        assert ctx.findings == []

    def test_uncached_property_prices_a_rare_type(self):
        ctx = lint_snippet(
            """
            from dataclasses import dataclass

            class Message:
                __slots__ = ()

            @dataclass(frozen=True, slots=True)
            class Promise(Message):
                accepted: dict

                @property
                def payload_bytes(self):
                    return 16 * len(self.accepted)
            """,
            relpath="protocol/messages.py",
        )
        assert [f for f in ctx.findings if f.rule == "wire-type-hygiene"] == []

    def test_fires_on_payload_bytes_method(self):
        # The retired API: SizeModel reads an attribute, a method would be
        # added to the header as a bound-method object.
        ctx = lint_snippet(
            """
            class Message:
                __slots__ = ()

            class Propose(Message):
                __slots__ = ("command",)

                def __init__(self, command):
                    self.command = command

                def payload_bytes(self):
                    return self.command.payload_bytes
            """,
            relpath="protocol/messages.py",
        )
        assert any("is a method" in f.message for f in ctx.findings)

    def test_fires_on_size_slot_never_filled_in_init(self):
        ctx = lint_snippet(
            """
            class Message:
                __slots__ = ()

            class Propose(Message):
                __slots__ = ("command", "payload_bytes")

                def __init__(self, command):
                    self.command = command
            """,
            relpath="protocol/messages.py",
        )
        assert any("does not fill it in __init__" in f.message for f in ctx.findings)

    def test_fires_on_lazily_filled_size(self):
        # A message is shared by reference across simulated nodes: a size
        # memo filled on first use is written by whichever node gets there
        # first.  The memo must be complete when __init__ returns.
        snippet = """
            class Message:
                __slots__ = ()

            class Propose(Message):
                __slots__ = ("command", "payload_bytes")

                def __init__(self, command):
                    self.command = command
                    self.payload_bytes = None

                def wire_size(self):
                    if self.payload_bytes is None:
                        self.payload_bytes = self.command.payload_bytes
                    return self.payload_bytes
            """
        ctx = lint_snippet(snippet, relpath="overlay/messages.py")
        lazy = [f for f in ctx.findings if "outside __init__" in f.message]
        assert len(lazy) == 1 and lazy[0].rule == "wire-type-hygiene"
        # The commands that messages wrap are held to the same memo rule
        # (and only to it: the module is not a */messages.py).
        ctx = lint_snippet(snippet, relpath="statemachine/command.py")
        assert [f.rule for f in ctx.findings] == ["wire-type-hygiene"]

    def test_inherited_payload_bytes_counts(self):
        ctx = lint_snippet(
            """
            class Message:
                __slots__ = ()

            class Base(Message):
                __slots__ = ("command",)

                payload_bytes = 8

            class Derived(Base):
                __slots__ = ()

                def __init__(self, command):
                    self.command = command
            """,
            relpath="overlay/messages.py",
        )
        assert ctx.findings == []

    def test_dataclass_slots_satisfies_slots(self):
        ctx = lint_snippet(
            """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Ping:
                ballot: int
            """,
            relpath="protocol/messages.py",
        )
        assert ctx.findings == []

    def test_silent_outside_message_modules(self):
        ctx = lint_snippet(
            """
            class Helper:
                def __init__(self):
                    self.cache = {}
            """,
            relpath="sim/example.py",
        )
        assert ctx.findings == []


# ----------------------------------------- no-frozen-dataclass-hot-path
class TestNoFrozenDataclassHotPath:
    def test_fires_on_frozen_dataclass(self):
        ctx = lint_snippet(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class P2a:
                ballot: int
            """,
            relpath="protocol/messages.py",
        )
        assert "no-frozen-dataclass-hot-path" in rule_ids(ctx)

    def test_silent_on_plain_dataclass(self):
        ctx = lint_snippet(
            """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class P2a:
                ballot: int
            """,
            relpath="protocol/messages.py",
        )
        assert ctx.findings == []

    def test_frozen_fine_outside_hot_modules(self):
        ctx = lint_snippet(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Violation:
                message: str
            """,
            relpath="checkers/example.py",
        )
        assert ctx.findings == []


# ------------------------------------------------------------ scenario-hygiene
class TestScenarioHygiene:
    def test_fires_on_missing_checks_and_floor(self):
        ctx = lint_snippet(
            """
            s = Scenario(name="bad", protocol="paxos", num_nodes=5)
            """,
            relpath="scenarios/library.py",
        )
        messages = " ".join(f.message for f in ctx.findings)
        assert "does not declare checks" in messages
        assert "min_completed" in messages

    def test_fires_on_empty_checks(self):
        ctx = lint_snippet(
            """
            s = Scenario(name="bad", checks=(), min_completed=10)
            """,
            relpath="scenarios/library.py",
        )
        assert any("empty checks" in f.message for f in ctx.findings)

    def test_fires_on_floor_without_progress_check(self):
        ctx = lint_snippet(
            """
            s = Scenario(name="bad", checks=("linearizability",), min_completed=10)
            """,
            relpath="scenarios/library.py",
        )
        assert any("floor would be inert" in f.message for f in ctx.findings)

    def test_silent_on_full_declaration(self):
        ctx = lint_snippet(
            """
            NAMES = ("linearizability", "log_invariants")
            s = Scenario(
                name="good",
                checks=NAMES + ("progress",),
                min_completed=100,
            )
            """,
            relpath="scenarios/library.py",
        )
        assert ctx.findings == []

    def test_silent_outside_library(self):
        ctx = lint_snippet(
            """
            s = Scenario(name="adhoc", protocol="paxos")
            """,
            relpath="fuzz/example.py",
        )
        assert ctx.findings == []


# ------------------------------------------------------- counter-name-registry
class TestCounterNameRegistry:
    def test_fires_on_typod_replica_counter(self):
        ctx = lint_snippet(
            """
            def commit(self):
                self.count("slots_comitted")
            """,
            relpath="paxos/example.py",
        )
        assert rule_ids(ctx) == ["counter-name-registry"]

    def test_silent_on_known_replica_counter(self):
        ctx = lint_snippet(
            """
            def commit(self):
                self.count("slots_committed")
            """,
            relpath="paxos/example.py",
        )
        assert ctx.findings == []

    def test_a_bound_replica_counter_is_checked_by_its_short_name(self):
        ctx = lint_snippet(
            """
            def fan_out(self, host):
                self.host.counter("relay_fanouts").value += 1.0
                host.counter("relay_rounds").value += 1.0
                host.counter("relay_rundos").value += 1.0
            """,
            relpath="overlay/example.py",
        )
        assert [finding.line for finding in ctx.findings] == [5]
        assert rule_ids(ctx) == ["counter-name-registry"]

    def test_fires_on_unknown_metric_name(self):
        ctx = lint_snippet(
            """
            def record(metrics):
                metrics.counter("net.bogus_counter").increment()
            """,
            relpath="net/example.py",
        )
        assert rule_ids(ctx) == ["counter-name-registry"]

    def test_silent_on_known_metric_and_prefix_family(self):
        ctx = lint_snippet(
            """
            def record(metrics):
                metrics.counter("net.messages_sent").increment()
                metrics.counter("net.sent.P2a").increment()
            """,
            relpath="net/example.py",
        )
        assert ctx.findings == []

    def test_silent_on_str_count(self):
        ctx = lint_snippet(
            """
            def tally(text):
                return "abc".count("a") + text.strip().count("b")
            """,
            relpath="sim/example.py",
        )
        assert ctx.findings == []

    def test_every_registered_name_has_a_writer(self):
        # A registered counter must be written somewhere: an entry whose
        # writer was deleted would otherwise keep the registry lying.
        literals = set()
        for path in (SRC / "repro").rglob("*.py"):
            if "lint" in path.relative_to(SRC / "repro").parts:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    literals.add(node.value)
        assert sorted(REPLICA_COUNTERS - literals) == []
        unwritten = [
            name for name in sorted(METRIC_NAMES - literals)
            if not name.startswith(METRIC_NAME_PREFIXES)
        ]
        assert unwritten == []


# ------------------------------------------------------- one example per rule
#: A minimal bad snippet for every checking rule: each gives exactly one
#: finding, of its own rule.  A new rule must add a row here.
RULE_EXAMPLES = {
    "no-wall-clock": ("sim/example.py", "import time\nt = time.time()\n"),
    "no-unseeded-random": ("sim/example.py", "import random\nx = random.random()\n"),
    "no-unordered-iteration": (
        "overlay/example.py",
        "def fan_out(self, peers):\n    for peer in peers.keys():\n        self.send(peer)\n",
    ),
    "no-hash-order": (
        "overlay/example.py",
        "def bucket(member, n):\n    return hash(member) % n\n",
    ),
    "wire-type-hygiene": (
        "protocol/messages.py",
        "class Ping:\n    def __init__(self, ballot):\n        self.ballot = ballot\n",
    ),
    "no-frozen-dataclass-hot-path": (
        "sim/events.py",
        "from dataclasses import dataclass\n\n@dataclass(frozen=True)\nclass Timer:\n"
        "    at: float\n",
    ),
    "scenario-hygiene": (
        "scenarios/library.py",
        's = Scenario(name="bad", checks=("linearizability",), min_completed=10)\n',
    ),
    "counter-name-registry": (
        "paxos/example.py",
        'def commit(self):\n    self.count("slots_comitted")\n',
    ),
}


def test_every_checking_rule_has_an_example():
    assert set(RULE_EXAMPLES) == set(RULES) - {"parse-error", "suppression-hygiene"}


@pytest.mark.parametrize("rule_id", sorted(RULE_EXAMPLES))
def test_example_fires_once_and_suppresses_cleanly(rule_id):
    relpath, snippet = RULE_EXAMPLES[rule_id]
    ctx = lint_snippet(snippet, relpath=relpath)
    assert [finding.rule for finding in ctx.findings] == [rule_id]
    lines = snippet.splitlines()
    lines[ctx.findings[0].line - 1] += f"  # lint: ok({rule_id}) example of a reasoned suppression"
    ctx = lint_snippet("\n".join(lines) + "\n", relpath=relpath)
    assert ctx.findings == []
    assert [suppression.used for suppression in ctx.suppressions] == [True]


# -------------------------------------------------------- suppression handling
class TestSuppressions:
    def test_same_line_suppression_round_trip(self):
        bad = """
        import time
        t = time.time()
        """
        assert rule_ids(lint_snippet(bad)) == ["no-wall-clock"]
        good = """
        import time
        t = time.time()  # lint: ok(no-wall-clock) testing the escape hatch
        """
        ctx = lint_snippet(good)
        assert ctx.findings == []
        assert len(ctx.suppressions) == 1 and ctx.suppressions[0].used

    def test_comment_line_above_targets_next_line(self):
        ctx = lint_snippet(
            """
            import time
            # lint: ok(no-wall-clock) testing the comment-only form
            t = time.time()
            """
        )
        assert ctx.findings == []

    def test_reasonless_suppression_is_a_finding(self):
        ctx = lint_snippet(
            """
            import time
            t = time.time()  # lint: ok(no-wall-clock)
            """
        )
        assert rule_ids(ctx) == ["suppression-hygiene"]
        assert "no written reason" in ctx.findings[0].message

    def test_unknown_rule_id_is_a_finding(self):
        ctx = lint_snippet(
            """
            x = 1  # lint: ok(no-such-rule) believe me
            """
        )
        assert rule_ids(ctx) == ["suppression-hygiene"]
        assert "unknown rule" in ctx.findings[0].message

    def test_stale_suppression_is_a_finding(self):
        ctx = lint_snippet(
            """
            x = 1  # lint: ok(no-wall-clock) nothing here reads a clock
            """
        )
        assert rule_ids(ctx) == ["suppression-hygiene"]
        assert "stale" in ctx.findings[0].message

    def test_stale_not_reported_under_rule_filter(self):
        # With only one rule active a suppression for another rule cannot
        # be proven stale, so it must not be flagged.
        ctx = lint_snippet(
            """
            x = 1  # lint: ok(no-wall-clock) target rule not active
            """,
            rules=["no-unseeded-random", "suppression-hygiene"],
        )
        assert ctx.findings == []

    def test_suppression_inside_string_is_not_parsed(self):
        suppressions = parse_suppressions(
            "sim/example.py",
            'HINT = "silence with # lint: ok(no-wall-clock) reason"\n',
        )
        assert suppressions == []


# ------------------------------------------------------------------- framework
class TestFramework:
    def test_parse_error_is_reported(self):
        ctx = lint_snippet("def broken(:\n")
        assert rule_ids(ctx) == ["parse-error"]

    def test_parse_error_hint_is_its_rows(self):
        # One rule id, one hint: the engine reports the catalogue row's.
        (finding,) = lint_snippet("def broken(:\n").findings
        assert finding.hint == RULES["parse-error"].hint

    def test_repro_relpath(self):
        assert repro_relpath(Path("src/repro/sim/metrics.py")) == "sim/metrics.py"
        assert repro_relpath(Path("/a/b/repro/net/faults.py")) == "net/faults.py"
        assert repro_relpath(Path("elsewhere/module.py")) == "module.py"

    def test_unknown_rule_filter_raises(self):
        with pytest.raises(ValueError):
            default_rules(["no-such-rule"])

    def test_every_rule_has_id_title_contract(self):
        for rule_id, rule_cls in RULES.items():
            assert rule_cls.id == rule_id
            assert rule_cls.title
            assert rule_cls.contract

    def test_sim_scope_names_existing_directories(self):
        missing = [name for name in SIM_SCOPE if not (SRC / "repro" / name).is_dir()]
        assert missing == []


# ------------------------------------------------------------------ self-check
class TestSelfCheck:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )

    def test_tree_is_clean(self):
        result = self.run_cli("src/repro")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_every_suppression_has_a_reason(self):
        result = self.run_cli("src/repro", "--list-suppressions")
        assert result.returncode == 0
        assert "<NO REASON>" not in result.stdout

    def test_json_output_is_valid(self):
        result = self.run_cli("src/repro", "--json")
        assert result.returncode == 0
        assert json.loads(result.stdout) == []

    def test_findings_gate_exit_code(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        result = self.run_cli(str(bad))
        assert result.returncode == 1
        assert "no-wall-clock" in result.stdout

    def test_usage_error_exit_code(self):
        assert self.run_cli().returncode == 2
        assert self.run_cli("--rule", "no-such-rule", "src/repro").returncode == 2
