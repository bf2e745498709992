"""Unit tests for the Multi-Paxos replica, driven through a fake context."""

from __future__ import annotations

import pytest

from helpers import FakeContext
from repro.fuzz.mutations import apply_mutation
from repro.paxos.replica import MultiPaxosReplica
from repro.protocol.ballot import Ballot
from repro.protocol.config import ProtocolConfig
from repro.protocol.messages import (
    ClientReply,
    ClientRequest,
    FillReply,
    FillRequest,
    Heartbeat,
    P1a,
    P1b,
    P2a,
    P2b,
)
from repro.statemachine.command import Command, NoOp, OpType


def make_replica(node_id: int = 0, cluster: int = 5, leader: int = 0):
    ctx = FakeContext(node_id=node_id, all_nodes=list(range(cluster)))
    replica = MultiPaxosReplica(config=ProtocolConfig(initial_leader=leader))
    replica.bind(ctx)
    return replica, ctx


def client_request(key: str = "k", client_id: int = 1000, request_id: int = 1) -> ClientRequest:
    return ClientRequest(
        command=Command(op=OpType.PUT, key=key, payload_size=8, client_id=client_id, request_id=request_id)
    )


def elect(replica, ctx):
    """Drive the replica through phase-1 until it is the leader."""
    begin_phase1(replica, ctx)
    for voter in (1, 2):
        replica.on_message(voter, P1b(ballot=replica.ballot, voter=voter, ok=True))
    assert replica.is_leader
    ctx.clear_sent()


def begin_phase1(replica, ctx):
    """Start the replica, which runs phase 1 at once as the initial leader."""
    replica.start()
    for timer in list(ctx.pending_timers()):
        if timer.delay == 0.0:
            timer.fire()


def campaign(replica, ctx):
    """Let the replica's election timeout lapse, so it runs phase 1."""
    ctx.advance(1.0)
    for timer in list(ctx.pending_timers()):
        if timer.callback == replica._check_leader_liveness:
            timer.fire()
    assert replica._phase1_tracker is not None


def replica_that_executed(node_id, ballot, commands):
    """A follower that accepted ``commands`` in slots 1.. under ``ballot`` and executed them."""
    replica, ctx = make_replica(node_id=node_id, leader=ballot.node_id)
    for slot, command in enumerate(commands, start=1):
        replica.on_message(ballot.node_id, P2a(ballot=ballot, slot=slot, command=command, commit_upto=slot - 1))
    replica.on_message(ballot.node_id, Heartbeat(ballot=ballot, commit_upto=len(commands)))
    return replica, ctx


class TestPhase1:
    def test_initial_leader_broadcasts_p1a(self):
        replica, ctx = make_replica()
        replica.start()
        for timer in list(ctx.pending_timers()):
            if timer.delay == 0.0:
                timer.fire()
        p1as = ctx.sent_of_type(P1a)
        assert len(p1as) == 4  # every peer
        assert replica.ballot.leader == 0

    def test_becomes_leader_after_majority_promises(self):
        replica, ctx = make_replica()
        elect(replica, ctx)
        assert replica.leader_id == 0

    def test_follower_promises_higher_ballot(self):
        replica, ctx = make_replica(node_id=1, leader=0)
        ballot = Ballot(5, 0)
        replica.on_message(0, P1a(ballot=ballot))
        replies = ctx.sent_of_type(P1b)
        assert len(replies) == 1
        assert replies[0][1].ok
        assert replica.promised == ballot

    def test_follower_rejects_lower_ballot(self):
        replica, ctx = make_replica(node_id=1)
        replica.on_message(0, P1a(ballot=Ballot(5, 0)))
        ctx.clear_sent()
        replica.on_message(2, P1a(ballot=Ballot(3, 2)))
        reply = ctx.sent_of_type(P1b)[0][1]
        assert not reply.ok
        assert reply.ballot == Ballot(5, 0)

    def test_new_leader_reproposes_accepted_commands(self):
        replica, ctx = make_replica()
        replica.start()
        for timer in list(ctx.pending_timers()):
            if timer.delay == 0.0:
                timer.fire()
        old_command = Command(op=OpType.PUT, key="old", payload_size=8)
        replica.on_message(1, P1b(ballot=replica.ballot, voter=1, ok=True,
                                  accepted={1: (Ballot(1, 3), old_command)}))
        replica.on_message(2, P1b(ballot=replica.ballot, voter=2, ok=True))
        assert replica.is_leader
        reproposed = [msg for _, msg in ctx.sent_of_type(P2a) if msg.slot == 1]
        assert reproposed and reproposed[0].command is old_command

    def test_candidate_that_promised_a_higher_ballot_does_not_lead(self):
        replica, ctx = make_replica(node_id=3, leader=3)
        begin_phase1(replica, ctx)
        assert replica.ballot == Ballot(1, 3)
        replica.on_message(0, P1a(ballot=Ballot(2, 0)))
        for voter in (1, 2):
            replica.on_message(voter, P1b(ballot=Ballot(1, 3), voter=voter, ok=True))
        assert not replica.is_leader
        assert replica.promised == Ballot(2, 0)
        assert ctx.sent_of_type(P2a) == []


class TestPhase2:
    def test_leader_fans_out_p2a_to_all_followers(self):
        replica, ctx = make_replica()
        elect(replica, ctx)
        replica.on_message(1000, client_request())
        p2as = ctx.sent_of_type(P2a)
        assert len(p2as) == 4
        assert {dst for dst, _ in p2as} == {1, 2, 3, 4}

    def test_commit_after_majority_and_reply_to_client(self):
        replica, ctx = make_replica()
        elect(replica, ctx)
        replica.on_message(1000, client_request(client_id=1000, request_id=7))
        slot = ctx.sent_of_type(P2a)[0][1].slot
        replica.on_message(1, P2b(ballot=replica.ballot, slot=slot, voter=1, ok=True))
        assert not replica.log.is_committed(slot)  # 2 of 5 votes so far (leader + 1)
        replica.on_message(2, P2b(ballot=replica.ballot, slot=slot, voter=2, ok=True))
        assert replica.log.is_committed(slot)
        replies = ctx.sent_of_type(ClientReply)
        assert len(replies) == 1
        dst, reply = replies[0]
        assert dst == 1000 and reply.request_id == 7 and reply.success

    def test_duplicate_votes_do_not_commit_early(self):
        replica, ctx = make_replica()
        elect(replica, ctx)
        replica.on_message(1000, client_request())
        slot = ctx.sent_of_type(P2a)[0][1].slot
        replica.on_message(1, P2b(ballot=replica.ballot, slot=slot, voter=1, ok=True))
        replica.on_message(1, P2b(ballot=replica.ballot, slot=slot, voter=1, ok=True))
        assert not replica.log.is_committed(slot)

    def test_follower_accepts_and_votes(self):
        replica, ctx = make_replica(node_id=2)
        ballot = Ballot(1, 0)
        command = Command(op=OpType.PUT, key="x", payload_size=8)
        replica.on_message(0, P2a(ballot=ballot, slot=1, command=command, commit_upto=0))
        votes = ctx.sent_of_type(P2b)
        assert len(votes) == 1 and votes[0][0] == 0 and votes[0][1].ok
        assert replica.log.get(1).command is command

    def test_follower_rejects_stale_ballot_p2a(self):
        replica, ctx = make_replica(node_id=2)
        replica.on_message(0, P1a(ballot=Ballot(9, 0)))
        ctx.clear_sent()
        replica.on_message(1, P2a(ballot=Ballot(2, 1), slot=1, command=None, commit_upto=0))
        vote = ctx.sent_of_type(P2b)[0][1]
        assert not vote.ok and vote.ballot == Ballot(9, 0)

    def test_leader_steps_down_on_higher_ballot_nack(self):
        replica, ctx = make_replica()
        elect(replica, ctx)
        replica.on_message(1000, client_request())
        slot = ctx.sent_of_type(P2a)[0][1].slot
        replica.on_message(3, P2b(ballot=Ballot(10, 3), slot=slot, voter=3, ok=False))
        assert not replica.is_leader
        assert replica.leader_id == 3

    def test_reply_routed_via_command_client_id(self):
        replica, ctx = make_replica()
        elect(replica, ctx)
        # Request forwarded by another replica: src is a node, but the command
        # carries the real client id.
        replica.on_message(3, client_request(client_id=1234, request_id=9))
        slot = ctx.sent_of_type(P2a)[0][1].slot
        for voter in (1, 2):
            replica.on_message(voter, P2b(ballot=replica.ballot, slot=slot, voter=voter, ok=True))
        dst, reply = ctx.sent_of_type(ClientReply)[0]
        assert dst == 1234 and reply.client_id == 1234


def _leader_state(replica, ctx):
    return (
        replica.is_leader,
        replica.promised,
        replica.ballot,
        replica.leader_id,
        replica.commit_upto,
        replica.log.committed_uids(),
        sorted((slot, p.committed) for slot, p in replica._proposals.items()),
        [(dst, type(m).__name__, getattr(m, "request_id", None)) for dst, m in ctx.sent],
    )


def _elected_pair(cluster):
    """Two identical leaders of a ``cluster``-node group at ballot 1.0."""
    pair = []
    for _ in range(2):
        replica, ctx = make_replica(cluster=cluster)
        begin_phase1(replica, ctx)
        for voter in range(1, replica.quorum.phase1_size):
            replica.on_message(voter, P1b(ballot=replica.ballot, voter=voter, ok=True))
        assert replica.is_leader
        ctx.clear_sent()
        pair.append((replica, ctx))
    return pair


class TestAggregatedVotes:
    """A relay aggregate's P2b votes counted in one call leave the leader
    exactly as one ``_on_p2b`` per vote does."""

    @staticmethod
    def _feed(pair, src, votes):
        (aggregated, _), (per_vote, _) = pair
        aggregated.votes[P2b](src, votes)
        for vote in votes:
            per_vote.handlers[P2b](src, vote)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_vote_tuples_match_per_vote_dispatch(self, seed):
        import random

        rng = random.Random(seed)
        cluster = rng.choice((3, 5, 7, 9))
        pair = _elected_pair(cluster)
        (leader, _), _ = pair
        current, stale, higher = leader.ballot, Ballot(0, 2), Ballot(2, cluster - 1)
        proposed = 0
        for round_index in range(60):
            if rng.random() < 0.3:
                request = client_request(request_id=round_index)
                for replica, _ in pair:
                    replica.on_message(1000, request)
                proposed += 1
            slot = rng.randint(1, proposed + 1)
            votes = []
            for _ in range(rng.randint(1, 7)):
                voter = rng.randrange(1, cluster)  # duplicates included
                roll = rng.random()
                if roll < 0.65:
                    votes.append(P2b(ballot=current, slot=slot, voter=voter, ok=True))
                elif roll < 0.8:
                    votes.append(P2b(ballot=stale, slot=slot, voter=voter, ok=True))
                elif roll < 0.97:
                    nack_ballot = rng.choice((stale, current))
                    votes.append(P2b(ballot=nack_ballot, slot=slot, voter=voter, ok=False))
                else:
                    votes.append(P2b(ballot=higher, slot=slot, voter=voter, ok=False))
            self._feed(pair, rng.randrange(1, cluster), tuple(votes))
            assert _leader_state(*pair[0]) == _leader_state(*pair[1])

    @pytest.mark.parametrize("before, committed", [((1,), False), ((1, 2), True)])
    def test_a_higher_nack_mid_tuple_ends_leadership_after_the_votes_before_it(
        self, before, committed
    ):
        pair = _elected_pair(5)
        request = client_request()
        for replica, _ in pair:
            replica.on_message(1000, request)
        ballot = pair[0][0].ballot
        votes = (
            *(P2b(ballot=ballot, slot=1, voter=v, ok=True) for v in before),
            P2b(ballot=Ballot(5, 3), slot=1, voter=3, ok=False),
            P2b(ballot=ballot, slot=1, voter=4, ok=True),
        )
        self._feed(pair, 1, votes)
        for replica, _ in pair:
            assert not replica.is_leader and replica.promised == Ballot(5, 3)
            assert replica.log.is_committed(1) is committed
        assert _leader_state(*pair[0]) == _leader_state(*pair[1])


class TestCommitPropagation:
    def test_piggybacked_commit_frontier_executes_on_follower(self):
        replica, ctx = make_replica(node_id=1)
        ballot = Ballot(1, 0)
        first = Command(op=OpType.PUT, key="a", value="1")
        second = Command(op=OpType.PUT, key="b", value="2")
        replica.on_message(0, P2a(ballot=ballot, slot=1, command=first, commit_upto=0))
        replica.on_message(0, P2a(ballot=ballot, slot=2, command=second, commit_upto=1))
        assert replica.log.is_committed(1)
        assert replica.store.get("a") == "1"
        assert not replica.log.is_committed(2)

    def test_heartbeat_advances_commit_frontier(self):
        replica, ctx = make_replica(node_id=1)
        ballot = Ballot(1, 0)
        command = Command(op=OpType.PUT, key="a", value="1")
        replica.on_message(0, P2a(ballot=ballot, slot=1, command=command, commit_upto=0))
        replica.on_message(0, Heartbeat(ballot=ballot, commit_upto=1))
        assert replica.log.is_committed(1)
        assert replica.store.get("a") == "1"

    def test_mismatched_ballot_triggers_fill_request(self):
        replica, ctx = make_replica(node_id=1)
        old, new = Ballot(1, 0), Ballot(2, 2)
        replica.on_message(0, P2a(ballot=old, slot=1, command=Command(op=OpType.PUT, key="a"), commit_upto=0))
        # New leader says slot 1 is committed, but our entry is from the old ballot.
        replica.on_message(2, Heartbeat(ballot=new, commit_upto=1))
        fill_timers = [t for t in ctx.pending_timers() if t.callback == replica._request_fill]
        assert fill_timers
        fill_timers[0].fire()
        requests = ctx.sent_of_type(FillRequest)
        assert requests and requests[0][1].slots == (1,)

    def test_leader_answers_fill_request(self):
        replica, ctx = make_replica()
        elect(replica, ctx)
        replica.on_message(1000, client_request())
        slot = ctx.sent_of_type(P2a)[0][1].slot
        for voter in (1, 2):
            replica.on_message(voter, P2b(ballot=replica.ballot, slot=slot, voter=voter, ok=True))
        ctx.clear_sent()
        replica.on_message(4, FillRequest(slots=(slot,), requester=4))
        replies = ctx.sent_of_type(FillReply)
        assert replies and replies[0][0] == 4
        assert replies[0][1].entries[0][0] == slot

    def test_follower_applies_fill_reply(self):
        replica, ctx = make_replica(node_id=4)
        command = Command(op=OpType.PUT, key="z", value="9")
        replica.on_message(0, FillReply(entries=((1, Ballot(1, 0), command),)))
        assert replica.log.is_committed(1)
        assert replica.store.get("z") == "9"


class TestClientHandling:
    def test_non_leader_redirects_to_known_leader(self):
        replica, ctx = make_replica(node_id=2)
        replica.on_message(0, P2a(ballot=Ballot(1, 0), slot=1,
                                  command=Command(op=OpType.PUT, key="x"), commit_upto=0))
        ctx.clear_sent()
        request = client_request(client_id=1000, request_id=4)
        replica.on_message(1000, request)
        redirects = ctx.sent_of_type(ClientReply)
        assert redirects and redirects[0][0] == 1000
        reply = redirects[0][1]
        assert not reply.success and reply.leader_hint == 0 and reply.request_id == 4

    def test_request_queued_until_leadership_known(self):
        replica, ctx = make_replica(node_id=2, leader=0)
        request = client_request()
        replica.on_message(1000, request)
        assert ctx.sent_of_type(P2a) == []
        assert replica._pending_requests


class TestFailover:
    def test_election_triggered_after_leader_silence(self):
        replica, ctx = make_replica(node_id=3, leader=0)
        replica.start()
        ctx.advance(10.0)
        liveness = [t for t in ctx.pending_timers() if t.callback == replica._check_leader_liveness]
        liveness[0].fire()
        assert ctx.sent_of_type(P1a)

    def test_crash_drops_leader_state_but_keeps_log(self):
        replica, ctx = make_replica()
        elect(replica, ctx)
        replica.on_message(1000, client_request())
        replica.on_crash()
        assert not replica.is_leader
        assert len(replica.log) >= 1  # stable storage survives
        replica.on_recover()
        assert not replica.is_leader

    def test_status_snapshot_keys(self):
        replica, ctx = make_replica()
        elect(replica, ctx)
        status = replica.status()
        assert status["is_leader"] is True
        assert status["node"] == 0


class TestAtMostOnceExecution:
    """Client-session dedup: a command committed in two slots applies once."""

    @staticmethod
    def _commit_write_overwrite_and_retry(replica, ctx):
        """Commit client 1000's write, client 1001's overwrite of the same
        key, then client 1000's retry of its first request in a third slot."""
        elect(replica, ctx)
        ballot = replica.ballot
        first = Command(op=OpType.PUT, key="k", value="first", client_id=1000, request_id=1)
        replica.on_message(1000, ClientRequest(command=first))
        for voter in (1, 2):
            replica.on_message(voter, P2b(ballot=ballot, slot=1, voter=voter, ok=True))
        assert replica.store.get("k") == "first"

        # Another client writes the same key in the next slot.
        second = Command(op=OpType.PUT, key="k", value="second", client_id=1001, request_id=1)
        replica.on_message(1001, ClientRequest(command=second))
        for voter in (1, 2):
            replica.on_message(voter, P2b(ballot=ballot, slot=2, voter=voter, ok=True))
        assert replica.store.get("k") == "second"

        # Client 1000 retries its first request (e.g. its reply was lost) and
        # the command is legitimately committed again in a third slot.
        replica.on_message(1000, ClientRequest(command=first))
        for voter in (1, 2):
            replica.on_message(voter, P2b(ballot=ballot, slot=3, voter=voter, ok=True))
        assert replica.log.is_committed(3)

    def test_duplicate_command_in_two_slots_applies_once(self):
        replica, ctx = make_replica()
        self._commit_write_overwrite_and_retry(replica, ctx)
        # The second application must be suppressed or it would clobber "second".
        assert replica.store.get("k") == "second"
        assert ctx.metrics.counter("paxos.duplicate_commands_skipped").value == 1
        # The retrying client still gets an answer (from the cached result).
        replies = [msg for dst, msg in ctx.sent_of_type(ClientReply) if dst == 1000]
        assert len(replies) == 2

    def test_session_dedup_off_mutation_reapplies_the_duplicate(self):
        """``session-dedup-off`` must really switch dedup off: the retry
        clobbers the overwrite and nothing counts a skip."""
        with apply_mutation("session-dedup-off"):
            replica, ctx = make_replica()
            self._commit_write_overwrite_and_retry(replica, ctx)
        assert replica.store.get("k") == "first"
        assert replica.store.applied_count == 3
        assert "paxos.duplicate_commands_skipped" not in ctx.metrics.counters()

    def test_commands_without_session_info_always_apply(self):
        replica, ctx = make_replica()
        elect(replica, ctx)
        ballot = replica.ballot
        for slot in (1, 2):
            anonymous = Command(op=OpType.PUT, key="k", value=f"v{slot}")  # request_id=0
            replica.on_message(1000, ClientRequest(command=anonymous))
            for voter in (1, 2):
                replica.on_message(voter, P2b(ballot=ballot, slot=slot, voter=voter, ok=True))
        assert replica.store.get("k") == "v2"
        assert ctx.metrics.counter("paxos.duplicate_commands_skipped").value == 0

    def test_session_cache_is_bounded_and_keeps_in_window_dedup(self):
        """The dedup cache evicts beyond the window but still suppresses
        re-execution of any request whose entry is inside the window."""
        ctx = FakeContext(node_id=0, all_nodes=list(range(5)))
        replica = MultiPaxosReplica(config=ProtocolConfig(initial_leader=0, session_window=2))
        replica.bind(ctx)
        elect(replica, ctx)
        ballot = replica.ballot
        commands = [
            Command(op=OpType.PUT, key="k", value=f"v{i}", client_id=1000, request_id=i)
            for i in (1, 2, 3)
        ]
        for slot, command in enumerate(commands, start=1):
            replica.on_message(1000, ClientRequest(command=command))
            for voter in (1, 2):
                replica.on_message(voter, P2b(ballot=ballot, slot=slot, voter=voter, ok=True))
        # Window is 2: request 1 was evicted, requests 2 and 3 remain.
        assert len(replica.store.sessions[1000]) == 2
        assert replica.store.evictions == 1
        assert 1 not in replica.store.sessions[1000]

        # An in-window retry (request 3) recommits but must not re-apply.
        replica.on_message(1000, ClientRequest(command=commands[2]))
        for voter in (1, 2):
            replica.on_message(voter, P2b(ballot=ballot, slot=4, voter=voter, ok=True))
        assert replica.store.get("k") == "v3"
        assert ctx.metrics.counter("paxos.duplicate_commands_skipped").value == 1


class TestRecoveryReportsEverySlot:
    """Phase 1 is classic synod recovery, along one path.

    A promise reports every entry its voter holds above the candidate's
    commit frontier, executed or not, and the new leader re-proposes the
    highest-ballot report in each slot it has not committed (a no-op where
    nothing was reported).  It fetches nothing.
    """

    def test_voter_reports_executed_slots_above_the_candidates_frontier(self):
        commands = [Command(op=OpType.PUT, key=f"k{slot}") for slot in (1, 2, 3)]
        voter, ctx = replica_that_executed(1, Ballot(2, 4), commands)
        assert voter.log.executed_count == 3
        voter.on_message(3, P1a(ballot=Ballot(3, 3), commit_upto=1))
        promise = ctx.sent_of_type(P1b)[-1][1]
        assert promise.ok
        assert promise.accepted == {2: (Ballot(2, 4), commands[1]), 3: (Ballot(2, 4), commands[2])}

    @pytest.mark.parametrize("higher_first", [True, False])
    def test_higher_ballot_report_beats_a_lower_ballot_one(self, higher_first):
        replica, ctx = make_replica(node_id=3, leader=3)
        begin_phase1(replica, ctx)
        stale = Command(op=OpType.PUT, key="x", value="stale")
        chosen = Command(op=OpType.PUT, key="x", value="chosen")
        reports = [{1: (Ballot(2, 4), chosen)}, {1: (Ballot(1, 0), stale)}]
        if not higher_first:
            reports.reverse()
        for voter, accepted in zip((1, 2), reports):
            replica.on_message(voter, P1b(ballot=replica.ballot, voter=voter, ok=True, accepted=accepted))
        assert replica.is_leader
        assert {msg.slot: msg.command for _, msg in ctx.sent_of_type(P2a)} == {1: chosen}

    def test_lagging_candidate_reproposes_every_reported_slot_above_its_frontier(self):
        replica, ctx = make_replica(node_id=3, leader=0)
        replica.start()
        old = Ballot(1, 0)
        for slot in (1, 2):
            replica.on_message(0, P2a(ballot=old, slot=slot, command=Command(op=OpType.PUT, key="a"),
                                      commit_upto=slot - 1))
        replica.on_message(0, Heartbeat(ballot=old, commit_upto=2))
        assert replica.commit_upto == 2
        ctx.clear_sent()
        campaign(replica, ctx)
        assert {msg.commit_upto for _, msg in ctx.sent_of_type(P1a)} == {2}

        third = Command(op=OpType.PUT, key="c")
        fifth = Command(op=OpType.PUT, key="e")
        replica.on_message(1, P1b(ballot=replica.ballot, voter=1, ok=True,
                                  accepted={3: (old, third), 5: (old, fifth)}))
        replica.on_message(2, P1b(ballot=replica.ballot, voter=2, ok=True))
        assert replica.is_leader
        proposed = {msg.slot: msg.command for _, msg in ctx.sent_of_type(P2a)}
        assert sorted(proposed) == [3, 4, 5]
        assert proposed[3] is third and proposed[5] is fifth
        assert isinstance(proposed[4], NoOp)
        assert replica.next_slot == 6
        assert ctx.sent_of_type(FillRequest) == []

    def test_chosen_value_survives_when_its_holder_has_executed_it(self):
        # Slot 1 was chosen at ballot 2.4: node 1 accepted, committed and
        # executed it.  Node 2 still holds a stale value from ballot 1.0.
        # Their two promises and the candidate's own are its quorum, so
        # node 1's promise must report the executed slot, or the candidate
        # re-proposes the stale value over the chosen one.
        chosen = Command(op=OpType.PUT, key="x", value="chosen")
        stale = Command(op=OpType.PUT, key="x", value="stale")
        holder, holder_ctx = replica_that_executed(1, Ballot(2, 4), [chosen])
        laggard, laggard_ctx = make_replica(node_id=2, leader=0)
        laggard.on_message(0, P2a(ballot=Ballot(1, 0), slot=1, command=stale, commit_upto=0))

        candidate, ctx = make_replica(node_id=3, leader=0)
        candidate.start()
        candidate.on_message(4, Heartbeat(ballot=Ballot(2, 4), commit_upto=0))
        campaign(candidate, ctx)
        p1a = ctx.sent_of_type(P1a)[0][1]
        for voter, voter_ctx in ((holder, holder_ctx), (laggard, laggard_ctx)):
            voter.on_message(3, p1a)
            candidate.on_message(voter.node_id, voter_ctx.sent_of_type(P1b)[-1][1])
        assert candidate.is_leader
        p2a = next(msg for _, msg in ctx.sent_of_type(P2a) if msg.slot == 1)
        assert p2a.command is chosen
        holder.on_message(3, p2a)  # accepted: nothing overwrites the holder's committed slot
        assert holder_ctx.sent_of_type(P2b)[-1][1].ok
