"""scripts/check_docs.py: a document or docstring that teaches a deleted name fails the docs job."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _SCRIPT)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_stale_imports_in_python_blocks_are_reported():
    text = (
        "```python\n"
        "from repro.cluster.builder import NoSuchBuilder, build_cluster\n"
        "import repro.cluster.no_such_module\n"
        "from repro import (Scenario,\n"
        "                   run_scenario)\n"
        "import json\n"
        "```\n"
        "```\nfrom repro import NotChecked  # not a python block\n```\n"
        "```python\nfor fragment in that_does_not_parse:\n```\n"
    )
    problems = check_docs.unresolved_imports(text)
    assert len(problems) == 2
    assert "NoSuchBuilder" in problems[0] and "repro.cluster.no_such_module" in problems[1]


def test_the_repo_docs_teach_only_importable_names():
    for markdown in check_docs.markdown_files([]):
        assert check_docs.unresolved_imports(markdown.read_text(encoding="utf-8")) == []


def test_deleted_class_names_in_markdown_are_reported():
    classes = check_docs.defined_classes()
    text = (
        "`Cluster`, `SimNetwork.send(src, dst, message, size)`, `ShardGroupView.leader_id`,\n"
        "`MultiPaxosReplica.bind` (inherited), `TestMutationsAreCaught` (a test class),\n"
        "`None`, `Counter.update`, `CRASHED`, `BENCHMARK.json`, `SHARD_ENDPOINT_STRIDE`,\n"
        "and two deleted names: `ShardAwareLatency`, `SimNode._handle()`.\n"
    )
    problems = check_docs.unknown_class_names(text, classes)
    assert len(problems) == 2
    assert "`ShardAwareLatency`" in problems[0] and "no class ShardAwareLatency" in problems[0]
    assert "`SimNode._handle`" in problems[1] and "no attribute _handle" in problems[1]


def test_the_repo_docs_name_only_defined_classes():
    classes = check_docs.defined_classes()
    for markdown in check_docs.markdown_files([]):
        assert check_docs.unknown_class_names(markdown.read_text(encoding="utf-8"), classes) == []


_TRIGGER_TABLE = (
    "| trigger | named by | fires when |\n"
    "|---|---|---|\n"
    "| `size` | x | y |\n"
    "| `delay` | x | y |\n"
    "| `immediate` | x | y |\n"
    "| `pipeline` | x | y |\n"
    "| `conflict` | x | y |\n"
    "\nprose after the table, with a `backticked` word\n"
)


def test_trigger_table_is_held_to_the_batcher_in_both_directions():
    assert check_docs.trigger_table_problems(_TRIGGER_TABLE) == []
    architecture = check_docs.ARCHITECTURE_MD.read_text(encoding="utf-8")
    assert check_docs.trigger_table_problems(architecture) == []
    undocumented = check_docs.trigger_table_problems(
        _TRIGGER_TABLE.replace("| `pipeline` | x | y |\n", "")
    )
    assert len(undocumented) == 1 and "`pipeline`" in undocumented[0]
    invented = check_docs.trigger_table_problems(
        _TRIGGER_TABLE.replace("| `conflict` |", "| `conflict` | x | y |\n| `backlog` |")
    )
    assert len(invented) == 1 and "`backlog`" in invented[0]
    assert len(check_docs.trigger_table_problems("no table here")) == 1


def test_trigger_counters_are_held_to_the_batcher(monkeypatch):
    from repro.lint import counters

    monkeypatch.setattr(
        counters, "METRIC_NAMES", counters.METRIC_NAMES - {"batch.flush.delay"}
    )
    (problem,) = check_docs.trigger_table_problems(_TRIGGER_TABLE)
    assert "batch.flush.delay" in problem


def test_prose_is_docstrings_and_comments_only():
    source = (
        '"""Module docstring citing GUIDE.md."""\n'
        "\n"
        "def f():\n"
        '    """Function docstring naming repro.nowhere."""\n'
        '    return "code.md"  # comment citing NOTES.md\n'
    )
    text = check_docs.prose(source)
    assert "GUIDE.md" in text and "repro.nowhere" in text and "NOTES.md" in text
    assert "code.md" not in text


def test_md_citations_match_repo_files_as_path_suffixes():
    repo = {"README.md", "docs/ARCHITECTURE.md"}
    assert check_docs.stale_citations("see ARCHITECTURE.md and docs/ARCHITECTURE.md", repo) == []
    (problem,) = check_docs.stale_citations("calibrated (see EXPERIMENTS.md)", repo)
    assert "EXPERIMENTS.md" in problem
    (problem,) = check_docs.stale_citations("see other/ARCHITECTURE.md", repo)
    assert "other/ARCHITECTURE.md" in problem


@pytest.mark.parametrize(
    "dotted, ok",
    [
        ("repro.sim.metrics", True),
        ("repro.sim.metrics.Histogram.percentile", True),
        ("repro.scenarios.ScenarioResult.stats", True),
        ("repro.sim.metrics.NoSuchMetric", False),
        ("repro.workload.client.ClosedLoopClient.no_such_method", False),
        ("repro.no_such_module", False),
    ],
)
def test_dotted_repro_references_must_resolve(dotted, ok):
    problems = check_docs.stale_citations(f"a docstring naming {dotted}.", set())
    assert problems == ([] if ok else [f"names {dotted}, which does not resolve"])


def _catalogue(rows):
    return "### Rule catalogue\n\n| Rule id | Contract clause |\n| --- | --- |\n" + "".join(
        f"| `{rule_id}` | {description} |\n" for rule_id, description in rows
    )


def test_rule_catalogue_is_held_to_the_rule_table():
    from repro.lint.rules import RULES

    rows = [(rule.id, f"{rule.title}: more words") for rule in RULES.values()]
    assert check_docs.rule_catalogue_problems(_catalogue(rows)) == []
    architecture = check_docs.ARCHITECTURE_MD.read_text(encoding="utf-8")
    assert check_docs.rule_catalogue_problems(
        check_docs.static_analysis_section(architecture)
    ) == []
    reordered = [rows[1], rows[0], *rows[2:]]
    (problem,) = check_docs.rule_catalogue_problems(_catalogue(reordered))
    assert "orders them no-wall-clock, no-unseeded-random" in problem
    drifted = [(rows[0][0], "no clock reads anywhere"), *rows[1:]]
    (problem,) = check_docs.rule_catalogue_problems(_catalogue(drifted))
    assert "`no-wall-clock` does not open with its title" in problem
