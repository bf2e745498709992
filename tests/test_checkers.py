"""Unit tests for the safety checkers: history recording, linearizability,
log invariants.  Violation *detection* is tested on hand-built histories and
clusters; whole-stack acceptance runs live in tests/test_scenarios.py."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.checkers.history import History, HistoryRecorder, Operation
from repro.checkers.invariants import (
    Violation,
    check_execution_frontier,
    check_prefix_agreement,
    check_quorum_sanity,
    check_slot_agreement,
)
from repro.checkers.linearizability import check_linearizability
from repro.protocol.messages import ClientReply
from repro.statemachine.command import Command, CommandResult, OpType
from repro.statemachine.log import ReplicatedLog


def op(client, rid, kind, key, value=None, inv=0.0, ret=None, output=None, found=None):
    return Operation(
        client_id=client, request_id=rid, op=kind, key=key, value=value,
        invoked_at=inv, completed_at=ret, output=output, found=found,
    )


def lin(*ops):
    return check_linearizability(History(list(ops)))


class TestLinearizabilityChecker:
    def test_empty_history_is_linearizable(self):
        assert lin() == []

    def test_sequential_writes_and_reads_pass(self):
        assert lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(1, 2, "get", "k", inv=2.0, ret=3.0, output="a", found=True),
            op(2, 1, "put", "k", value="b", inv=4.0, ret=5.0),
            op(1, 3, "get", "k", inv=6.0, ret=7.0, output="b", found=True),
        ) == []

    def test_read_of_unwritten_key_returns_absent(self):
        assert lin(op(1, 1, "get", "k", inv=0.0, ret=1.0, output=None, found=False)) == []

    def test_stale_read_is_flagged(self):
        violations = lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(2, 1, "put", "k", value="b", inv=2.0, ret=3.0),
            # Reads "a" strictly after "b" completed: not linearizable.
            op(3, 1, "get", "k", inv=4.0, ret=5.0, output="a", found=True),
        )
        assert len(violations) == 1
        assert violations[0].checker == "linearizability"
        assert "'k'" in violations[0].message

    def test_read_from_nowhere_is_flagged(self):
        violations = lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(2, 1, "get", "k", inv=2.0, ret=3.0, output="ghost", found=True),
        )
        assert len(violations) == 1

    def test_lost_update_is_flagged(self):
        violations = lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(2, 1, "get", "k", inv=2.0, ret=3.0, output=None, found=False),
        )
        assert len(violations) == 1

    def test_concurrent_read_may_observe_either_value(self):
        base = [
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(1, 2, "put", "k", value="b", inv=2.0, ret=6.0),
        ]
        overlapping_old = op(2, 1, "get", "k", inv=3.0, ret=4.0, output="a", found=True)
        overlapping_new = op(2, 1, "get", "k", inv=3.0, ret=4.0, output="b", found=True)
        assert lin(*base, overlapping_old) == []
        assert lin(*base, overlapping_new) == []

    def test_pending_write_may_have_taken_effect(self):
        assert lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=None),  # never completed
            op(2, 1, "get", "k", inv=5.0, ret=6.0, output="a", found=True),
        ) == []

    def test_pending_write_may_also_never_take_effect(self):
        assert lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=None),
            op(2, 1, "get", "k", inv=5.0, ret=6.0, output=None, found=False),
        ) == []

    def test_program_order_is_enforced_even_with_equal_timestamps(self):
        # Client 1 writes "a" then "b" back-to-back (reply and next invoke
        # share a timestamp, as in the simulator).  A later read must not
        # observe "a".
        violations = lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(1, 2, "put", "k", value="b", inv=1.0, ret=2.0),
            op(2, 1, "get", "k", inv=3.0, ret=4.0, output="a", found=True),
        )
        assert len(violations) == 1

    def test_keys_are_checked_independently(self):
        violations = lin(
            op(1, 1, "put", "good", value="x", inv=0.0, ret=1.0),
            op(2, 1, "get", "good", inv=2.0, ret=3.0, output="x", found=True),
            op(1, 2, "put", "bad", value="y", inv=4.0, ret=5.0),
            op(2, 2, "get", "bad", inv=6.0, ret=7.0, output="ghost", found=True),
        )
        assert len(violations) == 1
        assert "'bad'" in violations[0].message

    def test_delete_makes_key_absent(self):
        assert lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(1, 2, "delete", "k", inv=2.0, ret=3.0),
            op(2, 1, "get", "k", inv=4.0, ret=5.0, output=None, found=False),
        ) == []


class TestHistoryRecorder:
    def _command(self, client_id=1000, request_id=1, key="k", value="v"):
        return Command(op=OpType.PUT, key=key, value=value,
                       client_id=client_id, request_id=request_id)

    def _reply(self, command, value=None, existed=False):
        return ClientReply(
            command_uid=command.uid,
            request_id=command.request_id,
            client_id=command.client_id,
            success=True,
            result=CommandResult(command_uid=command.uid, success=True,
                                 value=value, existed=existed),
        )

    def test_invoke_is_idempotent_across_retries(self):
        recorder = HistoryRecorder()
        command = self._command()
        recorder.invoke(command, at=1.0)
        recorder.invoke(command, at=2.5)  # client retry re-sends the same command
        history = recorder.history()
        assert len(history) == 1
        assert history.operations()[0].invoked_at == 1.0

    def test_complete_records_result(self):
        recorder = HistoryRecorder()
        get = Command(op=OpType.GET, key="k", client_id=7, request_id=3)
        recorder.invoke(get, at=1.0)
        recorder.complete(self._reply(get, value="seen", existed=True), at=2.0)
        operation = recorder.history().operations()[0]
        assert operation.completed_at == 2.0
        assert operation.output == "seen"
        assert operation.found is True
        assert not operation.pending

    def test_unreplied_operations_stay_pending(self):
        recorder = HistoryRecorder()
        recorder.invoke(self._command(), at=1.0)
        assert recorder.history().pending()[0].pending

    def test_placeholder_value_matches_kvstore(self):
        recorder = HistoryRecorder()
        recorder.invoke(Command(op=OpType.PUT, key="k", payload_size=64,
                                client_id=1, request_id=1), at=0.0)
        assert recorder.history().operations()[0].value == "<64B>"

    def test_fingerprint_ignores_global_command_uids(self):
        def record():
            recorder = HistoryRecorder()
            command = self._command()  # fresh object, fresh uid
            recorder.invoke(command, at=1.0)
            recorder.complete(self._reply(command), at=2.0)
            return recorder.history().fingerprint()

        assert record() == record()


class _FakeCluster:
    """Just enough Cluster surface for the invariant checkers."""

    def __init__(self, replicas):
        self.nodes = {
            node_id: SimpleNamespace(replica=replica)
            for node_id, replica in enumerate(replicas)
        }

    def committed_prefixes(self):
        prefixes = {}
        for node_id, node in self.nodes.items():
            log = getattr(node.replica, "log", None)
            if log is not None:
                prefixes[node_id] = log.committed_prefix_uids()
        return prefixes


def _replica(quorum=None):
    return SimpleNamespace(log=ReplicatedLog(), commit_upto=0, quorum=quorum)


def _put(key="k"):
    return Command(op=OpType.PUT, key=key, value="v")


class TestLogInvariants:
    def test_agreeing_logs_pass(self):
        command = _put()
        replicas = [_replica(), _replica()]
        for replica in replicas:
            replica.log.commit(1, (1, 0), command)
            replica.commit_upto = 1
        cluster = _FakeCluster(replicas)
        assert check_slot_agreement(cluster) == []
        assert check_prefix_agreement(cluster) == []
        assert check_execution_frontier(cluster) == []

    def test_conflicting_slot_is_flagged(self):
        a, b = _replica(), _replica()
        a.log.commit(1, (1, 0), _put())
        b.log.commit(1, (1, 0), _put())  # different command, same slot
        violations = check_slot_agreement(_FakeCluster([a, b]))
        assert len(violations) == 1
        assert violations[0].checker == "slot_agreement"

    def test_diverging_prefix_is_flagged(self):
        shared = _put()
        a, b = _replica(), _replica()
        for replica in (a, b):
            replica.log.commit(1, (1, 0), shared)
        a.log.commit(2, (1, 0), _put())
        b.log.commit(2, (1, 0), _put())
        violations = check_prefix_agreement(_FakeCluster([a, b]))
        assert violations and violations[0].checker == "prefix_agreement"
        assert "slot 2" in violations[0].message

    def test_commit_frontier_beyond_committed_slots_is_flagged(self):
        lying = _replica()
        lying.commit_upto = 3  # nothing actually committed
        violations = check_execution_frontier(_FakeCluster([lying]))
        assert violations and violations[0].checker == "execution_frontier"

    def test_non_intersecting_quorums_are_flagged(self):
        bad = SimpleNamespace(n=2, phase1_size=1, phase2_size=1)
        violations = check_quorum_sanity(_FakeCluster([_replica(bad), _replica(bad)]))
        assert violations and violations[0].checker == "quorum_sanity"

    def test_mis_sized_quorum_is_flagged(self):
        wrong_n = SimpleNamespace(n=5, phase1_size=3, phase2_size=3)
        violations = check_quorum_sanity(_FakeCluster([_replica(wrong_n)]))
        assert violations and "n=5" in violations[0].message


# --------------------------------------------------------------------------
# The log checks walk containers; these walk slots, one probe at a time, the
# way the checks used to.  Kept as the reference: on any log state the two
# must return the same violations, same messages, same order.
# --------------------------------------------------------------------------


def _ref_logs(cluster):
    return sorted(
        (node_id, node.replica.log) for node_id, node in cluster.nodes.items()
        if getattr(node.replica, "log", None) is not None
    )


def _ref_slot_agreement(cluster):
    violations, chosen = [], {}
    for node_id, log in _ref_logs(cluster):
        for _, entry in sorted(log.by_slot.items()):
            if not entry.committed:
                continue
            uid = getattr(entry.command, "uid", None)
            previous = chosen.get(entry.slot)
            if previous is None:
                chosen[entry.slot] = (node_id, uid)
            elif previous[1] != uid:
                violations.append(Violation(
                    checker="slot_agreement",
                    message=(
                        f"slot {entry.slot}: node {previous[0]} committed command "
                        f"uid={previous[1]} but node {node_id} committed uid={uid}"
                    ),
                ))
    return violations


def _ref_committed_prefix_uids(log):
    uids, slot = [], 1
    while True:
        entry = log.get(slot)
        if entry is None or not entry.committed:
            return uids
        uids.append(getattr(entry.command, "uid", None))
        slot += 1


def _ref_prefix_agreement(cluster):
    violations = []
    prefixes = {node_id: _ref_committed_prefix_uids(log) for node_id, log in _ref_logs(cluster)}
    node_ids = sorted(prefixes)
    for i, a_id in enumerate(node_ids):
        for b_id in node_ids[i + 1:]:
            a, b = prefixes[a_id], prefixes[b_id]
            for slot_index in range(min(len(a), len(b))):
                if a[slot_index] != b[slot_index]:
                    violations.append(Violation(
                        checker="prefix_agreement",
                        message=(
                            f"nodes {a_id} and {b_id} diverge at slot "
                            f"{slot_index + 1}: uid {a[slot_index]} vs {b[slot_index]}"
                        ),
                    ))
                    break
    return violations


def _ref_execution_frontier(cluster):
    violations = []
    for node_id, log in _ref_logs(cluster):
        for slot in range(1, log.next_execute_slot):
            if not log.is_committed(slot):
                violations.append(Violation(
                    checker="execution_frontier",
                    message=(
                        f"node {node_id} executed through slot "
                        f"{log.next_execute_slot - 1} but slot {slot} is not committed"
                    ),
                ))
                break
        commit_upto = getattr(cluster.nodes[node_id].replica, "commit_upto", None)
        if commit_upto is not None:
            for slot in range(1, commit_upto + 1):
                if not log.is_committed(slot):
                    violations.append(Violation(
                        checker="execution_frontier",
                        message=(
                            f"node {node_id} advertises commit_upto={commit_upto} "
                            f"but slot {slot} is not committed locally"
                        ),
                    ))
                    break
    return violations


_REFERENCES = (
    (check_slot_agreement, _ref_slot_agreement),
    (check_prefix_agreement, _ref_prefix_agreement),
    (check_execution_frontier, _ref_execution_frontier),
)


def _conflicting_commit(cluster, rng):
    """One replica holds a different command in a slot everyone committed."""
    log = cluster.nodes[rng.randrange(1, 5)].replica.log
    log.by_slot[rng.randrange(2, log.committed_through(0))].command = _put("rogue")


def _uncommitted_below_commit_upto(cluster, rng):
    """A slot under the advertised (and executed) frontier lost its commit bit."""
    log = cluster.nodes[rng.randrange(5)].replica.log
    log.by_slot[rng.randrange(2, log.committed_through(0))].committed = False


def _executed_past_commit(cluster, rng):
    """The execute frontier ran ahead of everything the replica committed."""
    log = cluster.nodes[rng.randrange(5)].replica.log
    log._next_execute = log.max_slot + rng.randrange(2, 6)


def _shorter_and_diverging_prefix(cluster, rng):
    """One replica stops early (legal), another disagrees mid-prefix, and a
    third lost a committed slot outright -- so prefixes differ in length and
    the pairwise walk has both agreeing and diverging pairs to report."""
    short, diverging, holed = rng.sample(range(5), 3)
    log = cluster.nodes[short].replica.log
    for slot in range(log.committed_through(0) // 2, log.max_slot + 1):
        log.by_slot.pop(slot, None)
    log = cluster.nodes[diverging].replica.log
    log.by_slot[rng.randrange(2, log.committed_through(0) // 2)].command = _put("rogue")
    log = cluster.nodes[holed].replica.log
    del log.by_slot[rng.randrange(2, log.committed_through(0))]


class TestLogChecksMatchThePerSlotReference:
    @staticmethod
    def _finished_cluster(seed):
        from repro.scenarios import Scenario, run_scenario

        result = run_scenario(Scenario(
            name="checker-reference", protocol="paxos", num_nodes=5, num_clients=4,
            duration=0.12, seed=seed, checks=(),
        ))
        assert min(n.replica.log.committed_through(0) for n in result.cluster.nodes.values()) > 20
        return result.cluster

    def test_clean_run_passes_both(self):
        cluster = self._finished_cluster(seed=7)
        for check, reference in _REFERENCES:
            assert check(cluster) == reference(cluster) == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("corrupt", [
        _conflicting_commit,
        _uncommitted_below_commit_upto,
        _executed_past_commit,
        _shorter_and_diverging_prefix,
    ])
    def test_seeded_corruption_yields_identical_violations(self, corrupt, seed):
        import random

        cluster = self._finished_cluster(seed)
        corrupt(cluster, random.Random(seed))
        found = []
        for check, reference in _REFERENCES:
            violations = check(cluster)
            assert violations == reference(cluster)
            found.extend(violations)
        assert found, f"{corrupt.__name__} corrupted nothing a log check can see"


# --------------------------------------------------------------------------
# EPaxos invariants on hand-built replica states.
# --------------------------------------------------------------------------

from repro.checkers.invariants import (  # noqa: E402
    check_epaxos_conflict_ordering,
    check_epaxos_execution_consistency,
    check_epaxos_execution_order,
    check_epaxos_instance_agreement,
)
from repro.epaxos.graph import DependencyGraph  # noqa: E402


def _einstance(instance, command, seq, deps, status="executed"):
    return SimpleNamespace(
        instance=instance, command=command, seq=seq, deps=frozenset(deps), status=status
    )


def _ereplica(instances, executed_order):
    """A fake EPaxos replica: instances dict + graph + executed order."""
    graph = DependencyGraph()
    for instance in instances.values():
        if instance.status in ("committed", "executed"):
            graph.add_committed(instance.instance, instance.seq, frozenset(instance.deps))
    for instance_id in executed_order:
        graph.mark_executed(instance_id)
    return SimpleNamespace(instances=instances, graph=graph, executed_order=list(executed_order))


class TestEPaxosInvariants:
    def test_agreeing_replicas_pass_all_checks(self):
        first, second = _put("a"), _put("a")
        layout = {
            (0, 1): ((), 1, first),
            (1, 1): (((0, 1),), 2, second),
        }
        replicas = []
        for _ in range(2):
            instances = {
                iid: _einstance(iid, cmd, seq, deps)
                for iid, (deps, seq, cmd) in layout.items()
            }
            replicas.append(_ereplica(instances, [(0, 1), (1, 1)]))
        cluster = _FakeCluster(replicas)
        assert check_epaxos_instance_agreement(cluster) == []
        assert check_epaxos_execution_order(cluster) == []
        assert check_epaxos_execution_consistency(cluster) == []
        assert check_epaxos_conflict_ordering(cluster) == []

    def test_seq_disagreement_is_flagged(self):
        command = _put("a")
        a = _ereplica({(0, 1): _einstance((0, 1), command, 1, ())}, [(0, 1)])
        b = _ereplica({(0, 1): _einstance((0, 1), command, 2, ())}, [(0, 1)])
        violations = check_epaxos_instance_agreement(_FakeCluster([a, b]))
        assert violations and violations[0].checker == "epaxos_instance_agreement"

    def test_deps_disagreement_is_flagged(self):
        command = _put("a")
        a = _ereplica({(0, 1): _einstance((0, 1), command, 1, ())}, [])
        b = _ereplica({(0, 1): _einstance((0, 1), command, 1, {(4, 2)})}, [])
        violations = check_epaxos_instance_agreement(_FakeCluster([a, b]))
        assert violations and "deps" in violations[0].message

    def test_execution_before_dependency_is_flagged(self):
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 1, ()),
            (1, 1): _einstance((1, 1), second, 2, {(0, 1)}),
        }
        replica = _ereplica(instances, [(1, 1), (0, 1)])  # dependent first!
        violations = check_epaxos_execution_order(_FakeCluster([replica]))
        assert violations and violations[0].checker == "epaxos_execution_order"
        assert "before its dependency" in violations[0].message

    def test_cycle_members_may_execute_in_seq_order(self):
        """Mutual dependencies (one SCC) execute as a batch: no violation."""
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 1, {(1, 1)}),
            (1, 1): _einstance((1, 1), second, 2, {(0, 1)}),
        }
        replica = _ereplica(instances, [(0, 1), (1, 1)])
        assert check_epaxos_execution_order(_FakeCluster([replica])) == []

    def test_cycle_executed_out_of_seq_order_is_flagged(self):
        """The cycle tie-break is (seq, id); id-only ordering is a planner
        bug even when every replica does it identically."""
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 2, {(1, 1)}),   # higher seq...
            (1, 1): _einstance((1, 1), second, 1, {(0, 1)}),  # ...runs second
        }
        replica = _ereplica(instances, [(0, 1), (1, 1)])  # id order, not seq
        violations = check_epaxos_execution_order(_FakeCluster([replica]))
        assert violations and "out of (seq, id) order" in violations[0].message

    def test_executed_with_unexecuted_dependency_is_flagged(self):
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 1, (), status="committed"),
            (1, 1): _einstance((1, 1), second, 2, {(0, 1)}),
        }
        replica = _ereplica(instances, [(1, 1)])
        violations = check_epaxos_execution_order(_FakeCluster([replica]))
        assert violations and "never executed" in violations[0].message

    def test_double_execution_is_flagged(self):
        command = _put("a")
        instances = {(0, 1): _einstance((0, 1), command, 1, ())}
        replica = _ereplica(instances, [(0, 1), (0, 1)])
        violations = check_epaxos_execution_order(_FakeCluster([replica]))
        assert violations and "more than once" in violations[0].message

    def test_cross_replica_order_divergence_is_flagged(self):
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 1, ()),
            (1, 1): _einstance((1, 1), second, 1, ()),
        }
        a = _ereplica(dict(instances), [(0, 1), (1, 1)])
        b = _ereplica(dict(instances), [(1, 1), (0, 1)])
        violations = check_epaxos_execution_consistency(_FakeCluster([a, b]))
        assert violations and violations[0].checker == "epaxos_execution_consistency"

    def test_shorter_execution_prefix_is_not_divergence(self):
        """A replica that missed late commits executes a prefix, not a fork."""
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 1, ()),
            (1, 1): _einstance((1, 1), second, 2, {(0, 1)}),
        }
        a = _ereplica(dict(instances), [(0, 1), (1, 1)])
        b = _ereplica({(0, 1): instances[(0, 1)]}, [(0, 1)])
        assert check_epaxos_execution_consistency(_FakeCluster([a, b])) == []

    def test_conflicting_instances_without_path_are_flagged(self):
        """Two executed same-key instances with no dependency path: the
        exact state a reply-accounting bug produces."""
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 1, ()),
            (1, 1): _einstance((1, 1), second, 1, ()),  # no edge either way
        }
        replica = _ereplica(instances, [(0, 1), (1, 1)])
        violations = check_epaxos_conflict_ordering(_FakeCluster([replica]))
        assert violations and violations[0].checker == "epaxos_conflict_ordering"
        assert "no dependency path" in violations[0].message

    def test_transitive_path_satisfies_conflict_ordering(self):
        a_cmd, b_cmd, c_cmd = _put("a"), _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), a_cmd, 1, ()),
            (1, 1): _einstance((1, 1), b_cmd, 2, {(0, 1)}),
            (2, 1): _einstance((2, 1), c_cmd, 3, {(1, 1)}),
        }
        replica = _ereplica(instances, [(0, 1), (1, 1), (2, 1)])
        assert check_epaxos_conflict_ordering(_FakeCluster([replica])) == []

    def test_different_keys_never_need_ordering(self):
        instances = {
            (0, 1): _einstance((0, 1), _put("a"), 1, ()),
            (1, 1): _einstance((1, 1), _put("b"), 1, ()),
        }
        replica = _ereplica(instances, [(0, 1), (1, 1)])
        assert check_epaxos_conflict_ordering(_FakeCluster([replica])) == []

    def test_paxos_cluster_is_skipped_by_epaxos_checks(self):
        cluster = _FakeCluster([_replica(), _replica()])
        assert check_epaxos_instance_agreement(cluster) == []
        assert check_epaxos_execution_order(cluster) == []
        assert check_epaxos_execution_consistency(cluster) == []
        assert check_epaxos_conflict_ordering(cluster) == []
