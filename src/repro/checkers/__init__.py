"""Post-hoc safety checkers for simulated consensus runs.

The scenario engine (:mod:`repro.scenarios`) records every client
operation into a :class:`~repro.checkers.history.HistoryRecorder` and,
after the run, feeds the history and the cluster state to the checkers in
this package:

* :mod:`repro.checkers.linearizability` -- a WGL-style (Wing & Gong /
  Lowe) search that decides whether the recorded invocation/response
  history of the replicated KV store is linearizable, checked
  independently per key.
* :mod:`repro.checkers.invariants` -- log-level invariants that hold for
  Paxos/PigPaxos regardless of schedule: a single value chosen per slot
  across replicas, agreement on the gap-free committed prefix, execution
  never running ahead of commitment, and quorum-size sanity.  Plus the
  EPaxos family: cross-replica agreement on each committed instance's
  ``(seq, deps, command)``, dependency-respecting local execution order,
  and per-key cross-replica execution consistency.

Checkers never mutate the cluster; each returns a list of
:class:`~repro.checkers.invariants.Violation` records (empty means the
run passed).  They are deliberately independent of the scenario engine so
tests and benchmarks can also run them against hand-built clusters.

Example -- checking a cluster you built yourself::

    from repro.checkers import check_linearizability, run_log_checks
    from repro.cluster.builder import build_cluster

    cluster = build_cluster("pigpaxos", num_nodes=5, num_clients=4, seed=3)
    cluster.run(1.0)
    violations = run_log_checks(cluster) + check_linearizability(cluster.history())
    assert not violations, violations

For EPaxos clusters substitute :func:`run_epaxos_checks` for
:func:`run_log_checks` (the slot-based checks skip themselves on
protocols without a slot log).
"""

from repro.checkers.history import History, HistoryRecorder, Operation
from repro.checkers.invariants import (
    Violation,
    check_epaxos_conflict_ordering,
    check_epaxos_execution_consistency,
    check_epaxos_execution_order,
    check_epaxos_instance_agreement,
    check_execution_frontier,
    check_prefix_agreement,
    check_quorum_sanity,
    check_slot_agreement,
    run_epaxos_checks,
    run_log_checks,
)
from repro.checkers.linearizability import check_linearizability

__all__ = [
    "History",
    "HistoryRecorder",
    "Operation",
    "Violation",
    "check_epaxos_conflict_ordering",
    "check_epaxos_execution_consistency",
    "check_epaxos_execution_order",
    "check_epaxos_instance_agreement",
    "check_execution_frontier",
    "check_prefix_agreement",
    "check_quorum_sanity",
    "check_slot_agreement",
    "run_epaxos_checks",
    "run_log_checks",
    "check_linearizability",
]
