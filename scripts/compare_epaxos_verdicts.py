"""Record, and compare between two trees, the EPaxos checkers' verdicts.

Runs every EPaxos library scenario with no mutation and under each
re-seeded EPaxos bug of ``repro.fuzz.mutations``, and records per run the
fingerprint, a digest of every replica's ``executed_order`` and each EPaxos
check's violation messages in the order the check reported them.  A change
to the EPaxos replica or to ``repro.checkers.invariants`` that claims "same
verdicts" must produce a byte-identical record on both trees::

    PYTHONPATH=<old tree>/src python scripts/compare_epaxos_verdicts.py --dump old.json
    PYTHONPATH=src python scripts/compare_epaxos_verdicts.py --dump new.json
    python scripts/compare_epaxos_verdicts.py --compare old.json new.json

``--compare`` exits 1 and names each run that differs.  A full dump is
21 scenarios x 4 mutation states (about a minute per tree on one core).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace

#: ``None`` is the unmutated run; the rest are the EPaxos-stack mutations
#: that existed before ``recovery-noop`` (which needs a recovery-enabled
#: drop storm to bite, so its verdict pins live in tests/test_scenarios.py).
MUTATIONS = (None, "vote-dedup", "key-index", "planner-order")


def _executed_digest(cluster) -> str:
    digest = hashlib.sha256()
    for host in cluster.all_replica_hosts():
        digest.update(repr(getattr(host.replica, "executed_order", None)).encode("utf-8"))
    return digest.hexdigest()


def dump() -> dict:
    from repro.fuzz.mutations import apply_mutation
    from repro.scenarios import ScenarioRunner, scenarios_for_protocol

    record = {}
    for name, scenario in sorted(scenarios_for_protocol("epaxos").items()):
        # Only the EPaxos family is compared: linearizability is unchanged
        # and the slowest check under a mutation.
        scenario = replace(scenario, checks=("epaxos_invariants",))
        for mutation in MUTATIONS:
            with apply_mutation(mutation):
                result = ScenarioRunner(scenario).run()
            by_check: dict = {}
            for violation in result.violations:
                by_check.setdefault(violation.checker, []).append(violation.message)
            record[f"{name}|{mutation}"] = {
                "fingerprint": result.fingerprint(),
                "executed_order": _executed_digest(result.cluster),
                "violations": by_check,
            }
            print(f"{name:40s} {str(mutation):14s} "
                  + " ".join(f"{k}={len(v)}" for k, v in sorted(by_check.items())),
                  flush=True)
    return record


def compare(old: dict, new: dict) -> int:
    differing = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    for key in differing:
        print(f"DIFFERS: {key}")
    print(f"{len(old.keys() & new.keys()) - len(differing)}/{len(old.keys() | new.keys())} "
          "runs identical")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--dump", metavar="OUT", help="run the matrix and write the record")
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
