"""scripts/check_docs.py: a document that teaches a deleted name fails the docs job."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
