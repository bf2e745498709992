"""Unit tests for the EPaxos replica and its dependency graph."""

from __future__ import annotations

from helpers import FakeContext
from repro.epaxos.graph import DependencyGraph
from repro.epaxos.messages import (
    EAccept,
    EAcceptReply,
    ECommit,
    EPreAccept,
    EPreAcceptReply,
)
from repro.epaxos.replica import EPaxosReplica
from repro.fuzz.mutations import apply_mutation
from repro.protocol.config import ProtocolConfig
from repro.protocol.messages import ClientReply, ClientRequest
from repro.statemachine.command import Command, OpType


def make_replica(node_id=0, cluster=5, config=None):
    ctx = FakeContext(node_id=node_id, all_nodes=list(range(cluster)))
    replica = EPaxosReplica(config=config)
    replica.bind(ctx)
    replica.start()
    return replica, ctx


def request(key="k", client_id=1000, request_id=1) -> ClientRequest:
    return ClientRequest(
        command=Command(op=OpType.PUT, key=key, payload_size=8, client_id=client_id, request_id=request_id)
    )


class TestDependencyGraph:
    def test_linear_chain_executes_in_dependency_order(self):
        graph = DependencyGraph()
        graph.add_committed((0, 1), seq=1, deps=frozenset())
        graph.add_committed((0, 2), seq=2, deps=frozenset({(0, 1)}))
        order, visited = graph.execution_order((0, 2))
        assert order == [(0, 1), (0, 2)]
        assert visited >= 2

    def test_blocked_on_uncommitted_dependency(self):
        graph = DependencyGraph()
        graph.add_committed((0, 2), seq=2, deps=frozenset({(0, 1)}))
        order, _ = graph.execution_order((0, 2))
        assert order == []

    def test_cycle_resolved_by_seq_then_instance(self):
        graph = DependencyGraph()
        graph.add_committed((0, 1), seq=2, deps=frozenset({(1, 1)}))
        graph.add_committed((1, 1), seq=1, deps=frozenset({(0, 1)}))
        order, _ = graph.execution_order((0, 1))
        assert order == [(1, 1), (0, 1)]  # lower seq first within the SCC

    def test_executed_dependencies_are_skipped(self):
        graph = DependencyGraph()
        graph.add_committed((0, 1), seq=1, deps=frozenset())
        graph.mark_executed((0, 1))
        graph.add_committed((0, 2), seq=2, deps=frozenset({(0, 1)}))
        order, _ = graph.execution_order((0, 2))
        assert order == [(0, 2)]

    def test_already_executed_root_returns_empty(self):
        graph = DependencyGraph()
        graph.add_committed((0, 1), seq=1, deps=frozenset())
        graph.mark_executed((0, 1))
        assert graph.execution_order((0, 1)) == ([], 0)

    def test_diamond_dependencies(self):
        graph = DependencyGraph()
        graph.add_committed((0, 1), seq=1, deps=frozenset())
        graph.add_committed((1, 1), seq=2, deps=frozenset({(0, 1)}))
        graph.add_committed((2, 1), seq=2, deps=frozenset({(0, 1)}))
        graph.add_committed((3, 1), seq=3, deps=frozenset({(1, 1), (2, 1)}))
        order, _ = graph.execution_order((3, 1))
        assert order[0] == (0, 1)
        assert order[-1] == (3, 1)
        assert set(order) == {(0, 1), (1, 1), (2, 1), (3, 1)}


class TestCommandLeaderPath:
    def test_preaccept_broadcast_to_all_peers(self):
        replica, ctx = make_replica()
        replica.on_message(1000, request())
        preaccepts = ctx.sent_of_type(EPreAccept)
        assert len(preaccepts) == 4
        assert all(msg.instance == (0, 1) for _, msg in preaccepts)

    def test_fast_path_commit_when_replies_unchanged(self):
        replica, ctx = make_replica()
        replica.on_message(1000, request(client_id=1000, request_id=5))
        original = ctx.sent_of_type(EPreAccept)[0][1]
        ctx.clear_sent()
        # Fast quorum for n=5 is 3 (leader + 2 unchanged replies).
        for voter in (1, 2):
            replica.on_message(voter, EPreAcceptReply(
                instance=original.instance, voter=voter, ok=True,
                seq=original.seq, deps=original.deps, changed=False))
        commits = ctx.sent_of_type(ECommit)
        assert len(commits) == 4  # commit broadcast to everyone
        replies = ctx.sent_of_type(ClientReply)
        assert replies and replies[0][0] == 1000
        assert ctx.metrics.counter("epaxos.fast_path_commits").value == 1

    def test_changed_reply_forces_slow_path(self):
        replica, ctx = make_replica()
        replica.on_message(1000, request())
        original = ctx.sent_of_type(EPreAccept)[0][1]
        ctx.clear_sent()
        extra_dep = frozenset({(3, 9)})
        replica.on_message(1, EPreAcceptReply(
            instance=original.instance, voter=1, ok=True,
            seq=original.seq + 1, deps=original.deps | extra_dep, changed=True))
        replica.on_message(2, EPreAcceptReply(
            instance=original.instance, voter=2, ok=True,
            seq=original.seq, deps=original.deps, changed=False))
        accepts = ctx.sent_of_type(EAccept)
        assert len(accepts) == 4
        assert accepts[0][1].deps >= extra_dep
        assert ctx.sent_of_type(ECommit) == []  # not committed yet
        # Majority of accept replies commits.
        ctx.clear_sent()
        for voter in (1, 2):
            replica.on_message(voter, EAcceptReply(instance=original.instance, voter=voter, ok=True))
        assert ctx.sent_of_type(ECommit)

    def test_sequential_conflicting_commands_get_dependencies(self):
        replica, ctx = make_replica()
        replica.on_message(1000, request(key="same", request_id=1))
        first = ctx.sent_of_type(EPreAccept)[0][1]
        ctx.clear_sent()
        replica.on_message(1001, request(key="same", client_id=1001, request_id=1))
        second = ctx.sent_of_type(EPreAccept)[0][1]
        assert first.instance in second.deps
        assert second.seq > first.seq

    def test_non_conflicting_commands_have_no_deps(self):
        replica, ctx = make_replica()
        replica.on_message(1000, request(key="a"))
        ctx.clear_sent()
        replica.on_message(1001, request(key="b", client_id=1001))
        second = ctx.sent_of_type(EPreAccept)[0][1]
        assert second.deps == frozenset()

    def test_bookkeeping_cost_charged_per_instance(self):
        replica, ctx = make_replica()
        replica.on_message(1000, request())
        assert ctx.overhead_units == 1.0


class TestAcceptorPath:
    def test_preaccept_reply_reports_local_conflicts(self):
        replica, ctx = make_replica(node_id=1)
        # A previously known instance on the same key.
        replica.on_message(2, ECommit(instance=(2, 1),
                                      command=Command(op=OpType.PUT, key="same", payload_size=8),
                                      seq=4, deps=frozenset()))
        ctx.clear_sent()
        replica.on_message(0, EPreAccept(instance=(0, 1),
                                         command=Command(op=OpType.PUT, key="same", payload_size=8),
                                         seq=1, deps=frozenset()))
        reply = ctx.sent_of_type(EPreAcceptReply)[0][1]
        assert reply.changed
        assert (2, 1) in reply.deps
        assert reply.seq >= 5

    def test_unchanged_preaccept_reply_when_no_conflicts(self):
        replica, ctx = make_replica(node_id=1)
        replica.on_message(0, EPreAccept(instance=(0, 1),
                                         command=Command(op=OpType.PUT, key="x", payload_size=8),
                                         seq=1, deps=frozenset()))
        reply = ctx.sent_of_type(EPreAcceptReply)[0][1]
        assert not reply.changed

    def test_accept_acknowledged(self):
        replica, ctx = make_replica(node_id=3)
        replica.on_message(0, EAccept(instance=(0, 1),
                                      command=Command(op=OpType.PUT, key="x", payload_size=8),
                                      seq=1, deps=frozenset()))
        replies = ctx.sent_of_type(EAcceptReply)
        assert replies and replies[0][1].ok

    def test_commit_executes_on_every_replica(self):
        replica, ctx = make_replica(node_id=4)
        command = Command(op=OpType.PUT, key="x", value="42", payload_size=2)
        replica.on_message(0, ECommit(instance=(0, 1), command=command, seq=1, deps=frozenset()))
        assert replica.store.get("x") == "42"
        assert ctx.executed_commands == 1

    def test_execution_waits_for_dependencies(self):
        replica, ctx = make_replica(node_id=4)
        first = Command(op=OpType.PUT, key="x", value="1", payload_size=1)
        second = Command(op=OpType.PUT, key="x", value="2", payload_size=1)
        # Commit the dependent instance before its dependency.
        replica.on_message(0, ECommit(instance=(0, 2), command=second, seq=2, deps=frozenset({(0, 1)})))
        assert replica.store.get("x") is None
        replica.on_message(0, ECommit(instance=(0, 1), command=first, seq=1, deps=frozenset()))
        # Both now execute, dependency first.
        assert replica.store.get("x") == "2"

    def test_single_node_cluster_commits_immediately(self):
        replica, ctx = make_replica(node_id=0, cluster=1)
        replica.on_message(1000, request())
        assert ctx.sent_of_type(ClientReply)
        assert replica.graph.executed_count == 1


class TestReplyAccounting:
    """Retransmitted or duplicated replies must never fake a quorum."""

    def test_duplicate_preaccept_reply_does_not_commit_early(self):
        replica, ctx = make_replica()
        replica.on_message(1000, request())
        original = ctx.sent_of_type(EPreAccept)[0][1]
        ctx.clear_sent()
        reply = EPreAcceptReply(
            instance=original.instance, voter=1, ok=True,
            seq=original.seq, deps=original.deps, changed=False)
        replica.on_message(1, reply)
        replica.on_message(1, reply)  # retransmission of the same vote
        assert ctx.sent_of_type(ECommit) == []
        assert ctx.metrics.counter("epaxos.duplicate_preaccept_replies").value == 1
        # A second *distinct* voter completes the fast quorum.
        replica.on_message(2, EPreAcceptReply(
            instance=original.instance, voter=2, ok=True,
            seq=original.seq, deps=original.deps, changed=False))
        assert ctx.sent_of_type(ECommit)

    def test_duplicate_accept_reply_does_not_commit_early(self):
        replica, ctx = make_replica()
        replica.on_message(1000, request())
        original = ctx.sent_of_type(EPreAccept)[0][1]
        # Force the slow path with a changed reply.
        replica.on_message(1, EPreAcceptReply(
            instance=original.instance, voter=1, ok=True,
            seq=original.seq + 1, deps=original.deps | frozenset({(3, 9)}), changed=True))
        replica.on_message(2, EPreAcceptReply(
            instance=original.instance, voter=2, ok=True,
            seq=original.seq, deps=original.deps, changed=False))
        assert ctx.sent_of_type(EAccept)
        ctx.clear_sent()
        accept_reply = EAcceptReply(instance=original.instance, voter=1, ok=True)
        replica.on_message(1, accept_reply)
        replica.on_message(1, accept_reply)  # duplicate accept vote
        assert ctx.sent_of_type(ECommit) == []
        assert ctx.metrics.counter("epaxos.duplicate_accept_replies").value == 1
        replica.on_message(2, EAcceptReply(instance=original.instance, voter=2, ok=True))
        assert ctx.sent_of_type(ECommit)

    def test_own_vote_in_reply_is_ignored(self):
        replica, ctx = make_replica()
        replica.on_message(1000, request())
        original = ctx.sent_of_type(EPreAccept)[0][1]
        ctx.clear_sent()
        # A (corrupted/echoed) reply claiming to be the leader's own vote
        # must not count a second time.
        replica.on_message(1, EPreAcceptReply(
            instance=original.instance, voter=0, ok=True,
            seq=original.seq, deps=original.deps, changed=False))
        replica.on_message(1, EPreAcceptReply(
            instance=original.instance, voter=1, ok=True,
            seq=original.seq, deps=original.deps, changed=False))
        assert ctx.sent_of_type(ECommit) == []


class TestKeyIndexMonotonicity:
    """Stale redeliveries must never cost a dependency edge."""

    def test_stale_preaccept_redelivery_keeps_newer_dependency(self):
        replica, ctx = make_replica(node_id=1)
        key_cmd = Command(op=OpType.PUT, key="same", payload_size=8)
        old = EPreAccept(instance=(2, 1), command=key_cmd, seq=1, deps=frozenset())
        replica.on_message(2, old)
        newer = ECommit(instance=(2, 5), command=key_cmd, seq=9, deps=frozenset({(2, 1)}))
        replica.on_message(2, newer)
        # The old PreAccept is redelivered (duplicate); it must not shadow
        # (2, 5) in the key index.
        ctx.clear_sent()
        replica.on_message(2, old)
        assert ctx.metrics.counter("epaxos.key_index_stale_updates_skipped").value >= 1
        seq, deps = replica._conflicts_for(Command(op=OpType.PUT, key="same", payload_size=8))
        assert (2, 5) in deps
        assert seq >= 10

    def test_contended_writers_never_lose_an_edge(self):
        """Two same-seq instances from different leaders must *both* stay in
        the conflict index: the next command depends on each of them."""
        replica, ctx = make_replica(node_id=1)
        cmd = Command(op=OpType.PUT, key="hot", payload_size=8)
        # Two conflicting instances commit with the same sequence number
        # (concurrent leaders that did not see each other).
        replica.on_message(0, ECommit(instance=(0, 7), command=cmd, seq=4, deps=frozenset()))
        replica.on_message(4, ECommit(instance=(4, 3), command=cmd, seq=4, deps=frozenset()))
        seq, deps = replica._conflicts_for(Command(op=OpType.PUT, key="hot", payload_size=8))
        assert (0, 7) in deps and (4, 3) in deps
        assert seq == 5

    def test_index_tracks_latest_instance_per_origin(self):
        replica, ctx = make_replica(node_id=1)
        cmd = Command(op=OpType.PUT, key="k", payload_size=8)
        replica.on_message(0, ECommit(instance=(0, 1), command=cmd, seq=1, deps=frozenset()))
        replica.on_message(0, ECommit(instance=(0, 2), command=cmd, seq=2, deps=frozenset({(0, 1)})))
        _, deps = replica._conflicts_for(Command(op=OpType.PUT, key="k", payload_size=8))
        # Only origin 0's *latest* instance is a direct dependency; (0, 1)
        # is reachable through it.
        assert deps == frozenset({(0, 2)})


class TestAtMostOnceExecution:
    def _commit_fast(self, replica, ctx, instance_msg):
        for voter in (1, 2):
            replica.on_message(voter, EPreAcceptReply(
                instance=instance_msg.instance, voter=voter, ok=True,
                seq=instance_msg.seq, deps=instance_msg.deps, changed=False))

    def _write_overwrite_and_retry(self, replica, ctx):
        """Lead and commit client 1000's write, client 1001's overwrite of
        the same key, then client 1000's retry of its write in a third
        instance; return the reply to the first write."""
        first = Command(op=OpType.PUT, key="k", value="mine", payload_size=4,
                        client_id=1000, request_id=7)
        replica.on_message(1000, ClientRequest(command=first))
        msg1 = ctx.sent_of_type(EPreAccept)[0][1]
        self._commit_fast(replica, ctx, msg1)
        assert replica.store.get("k") == "mine"
        first_reply = [m for dst, m in ctx.sent_of_type(ClientReply) if dst == 1000][0]

        # Another command from a different client writes the same key.
        other = Command(op=OpType.PUT, key="k", value="theirs", payload_size=6,
                        client_id=1001, request_id=1)
        ctx.clear_sent()
        replica.on_message(1001, ClientRequest(command=other))
        msg2 = ctx.sent_of_type(EPreAccept)[0][1]
        self._commit_fast(replica, ctx, msg2)
        assert replica.store.get("k") == "theirs"

        # The first client retries (reply lost): a *third* instance carries
        # the same command, and it commits and executes.
        ctx.clear_sent()
        replica.on_message(1000, ClientRequest(command=first))
        msg3 = ctx.sent_of_type(EPreAccept)[0][1]
        self._commit_fast(replica, ctx, msg3)
        return first_reply

    def test_retried_command_in_second_instance_applies_once(self):
        """A client retry that spawns a second instance must not re-apply,
        and its leader must still answer with the cached result."""
        replica, ctx = make_replica()
        first_reply = self._write_overwrite_and_retry(replica, ctx)
        # The retry's instance must not clobber the overwrite.
        assert replica.store.get("k") == "theirs"
        assert ctx.metrics.counter("epaxos.duplicate_commands_skipped").value == 1
        retry_replies = [m for dst, m in ctx.sent_of_type(ClientReply) if dst == 1000]
        assert len(retry_replies) == 1  # the retry is still answered...
        assert retry_replies[0].result == first_reply.result  # ...with the cached result

    def test_session_dedup_off_mutation_reapplies_the_duplicate(self):
        """``session-dedup-off`` must really switch dedup off: the retry's
        instance clobbers the overwrite and nothing counts a skip."""
        with apply_mutation("session-dedup-off"):
            replica, ctx = make_replica()
            self._write_overwrite_and_retry(replica, ctx)
        assert replica.store.get("k") == "mine"
        assert replica.store.applied_count == 3
        assert "epaxos.duplicate_commands_skipped" not in ctx.metrics.counters()

    def test_duplicate_execution_suppressed_on_followers_too(self):
        replica, ctx = make_replica(node_id=3)
        command = Command(op=OpType.PUT, key="x", value="1", payload_size=1,
                          client_id=1000, request_id=5)
        replica.on_message(0, ECommit(instance=(0, 1), command=command, seq=1, deps=frozenset()))
        replica.on_message(4, ECommit(instance=(4, 1), command=command, seq=2,
                                      deps=frozenset({(0, 1)})))
        assert replica.graph.executed_count == 2
        assert replica.store.applied_count == 1
        # Followers never answer clients.
        assert ctx.sent_of_type(ClientReply) == []

    def test_sessions_are_scoped_per_client_and_key(self):
        """A tiny window must not let traffic on *other* keys evict a
        session entry: EPaxos only orders conflicting commands, so evictions
        are replica-deterministic only within a (client, key) session."""
        replica, ctx = make_replica(node_id=3, config=ProtocolConfig(session_window=1))
        r1 = Command(op=OpType.PUT, key="a", value="1", payload_size=1,
                     client_id=1000, request_id=1)
        r2 = Command(op=OpType.PUT, key="b", value="2", payload_size=1,
                     client_id=1000, request_id=2)
        replica.on_message(0, ECommit(instance=(0, 1), command=r1, seq=1, deps=frozenset()))
        replica.on_message(0, ECommit(instance=(0, 2), command=r2, seq=1, deps=frozenset()))
        # A duplicate instance of r1 (client retry) must still be deduped
        # even though r2 executed in between with window=1.
        replica.on_message(4, ECommit(instance=(4, 1), command=r1, seq=2,
                                      deps=frozenset({(0, 1)})))
        assert replica.store.applied_count == 2
        assert ctx.metrics.counter("epaxos.duplicate_commands_skipped").value == 1

    def test_executed_order_is_recorded(self):
        replica, ctx = make_replica(node_id=3)
        a = Command(op=OpType.PUT, key="x", value="1", payload_size=1)
        b = Command(op=OpType.PUT, key="x", value="2", payload_size=1)
        replica.on_message(0, ECommit(instance=(0, 2), command=b, seq=2, deps=frozenset({(0, 1)})))
        replica.on_message(0, ECommit(instance=(0, 1), command=a, seq=1, deps=frozenset()))
        assert replica.executed_order == [(0, 1), (0, 2)]


class TestDependencyGraphProperties:
    """Execution planning must be deterministic and seq-respecting no matter
    the order in which commits arrive."""

    def _random_graph(self, rng, num_instances):
        """A random committed conflict graph (chains + random extra edges)."""
        instances = [(rng.randrange(5), i) for i in range(1, num_instances + 1)]
        entries = []
        for index, instance in enumerate(instances):
            deps = set()
            if index > 0:
                # chain edge keeps the conflict graph connected
                deps.add(instances[index - 1])
                for _ in range(rng.randrange(3)):
                    deps.add(instances[rng.randrange(index)])
            # occasional forward edge to build dependency cycles
            if index + 1 < len(instances) and rng.random() < 0.3:
                deps.add(instances[index + 1])
            entries.append((instance, index + 1, frozenset(deps)))
        return entries

    def _drain(self, entries, order):
        """Mimic the replica's executor: commit in ``order``, executing
        every instance whose closure is ready; return the execution order."""
        graph = DependencyGraph()
        executed = []
        pending = set()
        for position in order:
            instance, seq, deps = entries[position]
            graph.add_committed(instance, seq, deps)
            pending.add(instance)
            progressed = True
            while progressed:
                progressed = False
                for root in sorted(pending):
                    plan, _ = graph.execution_order(root)
                    if not plan:
                        continue
                    for ready in plan:
                        graph.mark_executed(ready)
                        executed.append(ready)
                        pending.discard(ready)
                    progressed = True
        return executed

    def test_execution_order_is_independent_of_commit_interleaving(self):
        import random

        for seed in range(12):
            rng = random.Random(seed)
            entries = self._random_graph(rng, num_instances=24)
            baseline = self._drain(entries, list(range(len(entries))))
            assert len(baseline) == len(entries)  # everything executes
            for _ in range(4):
                shuffled = list(range(len(entries)))
                rng.shuffle(shuffled)
                assert self._drain(entries, shuffled) == baseline, f"seed {seed}"

    def test_execution_order_call_is_deterministic(self):
        import random

        rng = random.Random(99)
        entries = self._random_graph(rng, num_instances=16)
        graph = DependencyGraph()
        for instance, seq, deps in entries:
            graph.add_committed(instance, seq, deps)
        root = entries[-1][0]
        first, _ = graph.execution_order(root)
        second, _ = graph.execution_order(root)
        assert first == second
        assert first  # fully committed graph always yields a plan

    def test_seq_order_respected_within_cycles(self):
        import random

        rng = random.Random(7)
        for _ in range(8):
            # A dependency cycle of n mutually conflicting instances.
            size = rng.randrange(2, 6)
            members = [(m, 1) for m in range(size)]
            seqs = list(range(1, size + 1))
            rng.shuffle(seqs)
            graph = DependencyGraph()
            for index, member in enumerate(members):
                graph.add_committed(
                    member, seqs[index],
                    frozenset(members[:index] + members[index + 1:]))
            order, _ = graph.execution_order(members[0])
            expected = [m for _, m in sorted(zip(seqs, members))]
            assert order == expected
