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
