"""scripts/compare_library_runs.py --compare: equal records pass, a moved key
is named, and so is a checker whose verdict flipped."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_library_runs.py"
_spec = importlib.util.spec_from_file_location("compare_library_runs", _SCRIPT)
compare_library_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_library_runs)

#: One library row and one EPaxos row, in the shape ``--dump`` writes them.
_RECORD = {
    "pig-baseline-5|library": {
        "fingerprint": "65e984a4",
        "events_processed": 41234,
        "counters": {"net.messages_sent": 9120.0, "pigpaxos.relay_rounds": 812.0},
        "violations": {},
    },
    "epaxos-baseline-5|key-index": {
        "fingerprint": "910f57ef",
        "executed_order": "6ee44d27",
        "violations": {"epaxos_conflict_ordering": ["lost edge a", "lost edge b"]},
    },
}


def _compare(tmp_path, old, new):
    paths = []
    for name, record in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(record))
        paths.append(str(path))
    return compare_library_runs.main(["--compare", *paths])


def test_equal_records_pass(tmp_path, capsys):
    assert _compare(tmp_path, _RECORD, copy.deepcopy(_RECORD)) == 0
    assert "2/2 runs identical" in capsys.readouterr().out


@pytest.mark.parametrize(
    "row, path, value, named",
    [
        ("pig-baseline-5|library", ("counters", "pigpaxos.relay_rounds"), 813.0,
         "pig-baseline-5|library: counters[pigpaxos.relay_rounds]"),
        ("pig-baseline-5|library", ("events_processed",), 41235,
         "pig-baseline-5|library: events_processed"),
        ("pig-baseline-5|library", ("fingerprint",), "00000000",
         "pig-baseline-5|library: fingerprint"),
        ("epaxos-baseline-5|key-index", ("violations", "epaxos_conflict_ordering"),
         ["lost edge b", "lost edge a"],
         "epaxos-baseline-5|key-index: violations[epaxos_conflict_ordering]"),
    ],
)
def test_a_differing_key_fails_and_is_named(tmp_path, capsys, row, path, value, named):
    new = copy.deepcopy(_RECORD)
    target = new[row]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert _compare(tmp_path, _RECORD, new) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("DIFFERS")] == [
        f"DIFFERS: {named}"
    ]
    # Reordered messages of a tripped checker are a difference, not a flip.
    assert "FLIPPED" not in out
    assert "1/2 runs identical, 0 verdicts flipped" in out


def test_a_counter_only_one_side_has_is_named(tmp_path, capsys):
    new = copy.deepcopy(_RECORD)
    new["pig-baseline-5|library"]["counters"]["pigpaxos.relay_timeouts"] = 1.0
    assert _compare(tmp_path, _RECORD, new) == 1
    assert "DIFFERS: pig-baseline-5|library: counters[pigpaxos.relay_timeouts]" in (
        capsys.readouterr().out
    )


def test_a_row_only_one_side_ran_fails(tmp_path, capsys):
    new = copy.deepcopy(_RECORD)
    del new["epaxos-baseline-5|key-index"]
    assert _compare(tmp_path, _RECORD, new) == 1
    assert "DIFFERS: epaxos-baseline-5|key-index: only in old" in capsys.readouterr().out


@pytest.mark.parametrize(
    "row, checker, messages, flip",
    [
        ("epaxos-baseline-5|key-index", "epaxos_conflict_ordering", None,
         "tripped -> clean"),
        ("pig-baseline-5|library", "linearizability", ["stale read of k"],
         "clean -> tripped"),
    ],
)
def test_a_flipped_verdict_is_named(tmp_path, capsys, row, checker, messages, flip):
    new = copy.deepcopy(_RECORD)
    if messages is None:
        del new[row]["violations"][checker]
    else:
        new[row]["violations"][checker] = messages
    assert _compare(tmp_path, _RECORD, new) == 1
    out = capsys.readouterr().out
    assert f"DIFFERS: {row}: violations[{checker}]" in out
    assert [line for line in out.splitlines() if line.startswith("FLIPPED")] == [
        f"FLIPPED: {row} {checker} {flip}"
    ]
    assert "1/2 runs identical, 1 verdicts flipped" in out
