"""Record, and compare between two trees, every library scenario's run.

Two kinds of row:

* ``<scenario>|library`` -- each library scenario run as declared, read
  from its run record (``repro.scenarios.sweep.run_outcome``): its
  fingerprint, ``events_processed``, the full sorted counter map and each
  checker's violation messages in the order the checker reported them;
* ``<scenario>|<mutation>`` -- each EPaxos library scenario with only the
  EPaxos invariants checked, with no mutation (``None``) and under each
  re-seeded EPaxos bug of ``repro.fuzz.mutations``: the fingerprint, a
  digest of every replica's ``executed_order`` and each EPaxos check's
  messages in order.

A change that claims "same runs, same counters, same verdicts" must produce
an identical record on both trees::

    PYTHONPATH=<old tree>/src python scripts/compare_library_runs.py --dump old.json
    PYTHONPATH=src python scripts/compare_library_runs.py --dump new.json
    python scripts/compare_library_runs.py --compare old.json new.json

``--compare`` exits 1 and names every row and key that differs (``DIFFERS``),
and every checker whose verdict flipped between clean (no violations) and
tripped (``FLIPPED``); its summary line counts the flips.  A full dump
is 45 library rows plus 21 x 4 EPaxos rows (about 75 s per tree on one
core).  Command uids are reset before every run, so a row's messages do not
depend on the runs before it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from dataclasses import replace

#: ``None`` is the unmutated run; the rest are the EPaxos-stack mutations
#: that existed before ``recovery-noop`` (which needs a recovery-enabled
#: drop storm to bite, so its verdict pins live in tests/test_scenarios.py).
MUTATIONS = (None, "vote-dedup", "key-index", "planner-order")


def _fresh(run, scenario):
    """``run(scenario)`` with command uids reset, so messages are row-local."""
    from repro.statemachine import command

    command._command_uids = itertools.count(1)
    return run(scenario)


def _by_check(violations) -> dict:
    """``(checker, message)`` pairs -> each checker's messages in order."""
    by_check: dict = {}
    for checker, message in violations:
        by_check.setdefault(checker, []).append(message)
    return by_check


def _executed_digest(cluster) -> str:
    digest = hashlib.sha256()
    for host in cluster.all_replica_hosts():
        digest.update(repr(getattr(host.replica, "executed_order", None)).encode("utf-8"))
    return digest.hexdigest()


def dump() -> dict:
    from repro.fuzz.mutations import apply_mutation
    from repro.scenarios import all_scenarios, run_scenario, scenarios_for_protocol
    from repro.scenarios.sweep import run_outcome

    record = {}
    for name, scenario in sorted(all_scenarios().items()):
        outcome = _fresh(run_outcome, scenario)
        record[f"{name}|library"] = {
            "fingerprint": outcome.fingerprint,
            "events_processed": outcome.events_processed,
            "counters": outcome.counters,
            "violations": _by_check(outcome.violations),
        }
        print(f"{name:40s} library        {outcome.events_processed} events", flush=True)
    for name, scenario in sorted(scenarios_for_protocol("epaxos").items()):
        # Only the EPaxos family is compared: linearizability is unchanged
        # and the slowest check under a mutation.
        scenario = replace(scenario, checks=("epaxos_invariants",))
        for mutation in MUTATIONS:
            with apply_mutation(mutation):
                result = _fresh(run_scenario, scenario)
            by_check = _by_check((v.checker, v.message) for v in result.violations)
            record[f"{name}|{mutation}"] = {
                "fingerprint": result.fingerprint(),
                "executed_order": _executed_digest(result.cluster),
                "violations": by_check,
            }
            print(f"{name:40s} {str(mutation):14s} "
                  + " ".join(f"{k}={len(v)}" for k, v in sorted(by_check.items())),
                  flush=True)
    return record


def _differing_keys(old: dict, new: dict):
    """``key`` or ``key[subkey]`` for every field of one row that differs."""
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key), new.get(key)
        if before == after:
            continue
        if isinstance(before, dict) and isinstance(after, dict):
            for sub in sorted(before.keys() | after.keys()):
                if before.get(sub) != after.get(sub):
                    yield f"{key}[{sub}]"
        else:
            yield key


def _verdict(row: dict, checker: str) -> str:
    return "tripped" if row["violations"].get(checker) else "clean"


def compare(old: dict, new: dict) -> int:
    differing = flipped = 0
    for row in sorted(old.keys() | new.keys()):
        if row not in old or row not in new:
            print(f"DIFFERS: {row}: only in {'old' if row in old else 'new'}")
            differing += 1
        elif old[row] != new[row]:
            for key in _differing_keys(old[row], new[row]):
                print(f"DIFFERS: {row}: {key}")
            differing += 1
            for checker in sorted(old[row]["violations"].keys() | new[row]["violations"].keys()):
                before, after = _verdict(old[row], checker), _verdict(new[row], checker)
                if before != after:
                    print(f"FLIPPED: {row} {checker} {before} -> {after}")
                    flipped += 1
    rows = len(old.keys() | new.keys())
    print(f"{rows - differing}/{rows} runs identical, {flipped} verdicts flipped")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--dump", metavar="OUT", help="run every row and write the record")
    group.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                       help="compare two records written by --dump")
    args = parser.parse_args(argv)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as handle:
            json.dump(dump(), handle, indent=1, sort_keys=True)
        return 0
    with open(args.compare[0], encoding="utf-8") as a, open(args.compare[1], encoding="utf-8") as b:
        return compare(json.load(a), json.load(b))


if __name__ == "__main__":
    sys.exit(main())
