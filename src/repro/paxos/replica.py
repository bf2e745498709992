"""Multi-Paxos replica with a stable leader and commit piggybacking.

The replica plays all three classical roles (proposer, acceptor, learner).
Its phase-1/phase-2/heartbeat fan-outs route through the replica's
:class:`~repro.overlay.base.FanoutOverlay` -- :class:`DirectFanout` by
default (plain broadcast), :class:`ThriftyFanout` for quorum-subset sends,
and :class:`RelayFanout` for relay trees.  PigPaxos is this replica over
the relay overlay with the Figure 5b leader round retry switched on (the
``"pigpaxos"`` preset in :mod:`repro.protocol.resolver`): it changes *only*
the message-passing layer, mirroring how the paper's implementation reused
Paxos' correctness argument unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.overlay.base import FanoutOverlay
from repro.protocol.ballot import Ballot
from repro.protocol.base import Replica, TimerLike
from repro.protocol.batching import Batcher
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
from repro.quorum.systems import MajorityQuorum, QuorumSystem
from repro.quorum.tracker import BallotVoteTracker, VoteTracker
from repro.statemachine.command import NoOp
from repro.statemachine.kvstore import KVStore
from repro.statemachine.log import ReplicatedLog


@dataclass
class _Proposal:
    """Leader-side bookkeeping for one in-flight slot.

    ``clients`` is the reply routing: one ``(client_id, request_id)`` pair
    per command in the slot, in command order -- a single pair for a plain
    command, one per sub-command for a :class:`CommandBatch`, and ``()`` for
    a recovery re-proposal nobody here is waiting on.
    """

    slot: int
    command: object
    tracker: VoteTracker
    clients: Tuple[Tuple[int, int], ...] = ()
    committed: bool = False
    retry_timer: Optional[TimerLike] = None


class MultiPaxosReplica(Replica):
    """A Multi-Paxos node: proposer + acceptor + learner in one process."""

    protocol_name = "paxos"

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        quorum: Optional[QuorumSystem] = None,
        overlay: Optional[FanoutOverlay] = None,
    ) -> None:
        super().__init__(overlay=overlay)
        self.config = config or ProtocolConfig()
        self._quorum = quorum

        # Acceptor state (conceptually on stable storage).
        self.promised: Ballot = Ballot.zero()
        self.log = ReplicatedLog()
        # One session table for every key: the log is a total order (see
        # KVStore.apply).  Sessions survive crashes alongside log and store.
        self.store = KVStore(window=self.config.session_window)

        # Proposer / leader state.
        self.ballot: Ballot = Ballot.zero()
        self.is_leader = False
        self.leader_id: Optional[int] = None
        self.next_slot = 1
        self.commit_upto = 0
        self._proposals: Dict[int, _Proposal] = {}
        self._pending_requests: List[Tuple[int, ClientRequest]] = []
        self._phase1_tracker: Optional[BallotVoteTracker] = None
        self._phase1_timer: Optional[TimerLike] = None

        # Leader-side command batching & pipelining.  All off when
        # batch_max_commands == 1 (the default): no batcher exists, so
        # unbatched runs schedule exactly the events they always did and
        # recorded fingerprints stay byte-identical.  The pipeline bound is
        # this protocol's back-pressure on the shared batcher.
        self._inflight_slots = 0
        self._batcher: Optional[Batcher] = None
        if self.config.batch_max_commands > 1:
            self._batcher = Batcher(
                self, self.config.batch_max_commands, self.config.batch_max_delay,
                propose=self._propose_in_slot, has_room=self._pipeline_has_room,
            )

        # Failure detection.
        self._last_leader_contact = 0.0
        self._election_timeout = 0.0
        self._heartbeat_timer: Optional[TimerLike] = None
        self._fill_pending = False

    # ------------------------------------------------------------------ setup
    @property
    def quorum(self) -> QuorumSystem:
        if self._quorum is None:
            self._quorum = MajorityQuorum(self.cluster_size)
        return self._quorum

    def start(self) -> None:
        """Bootstrap: the configured initial leader runs phase-1, everyone arms timeouts."""
        rng = self.ctx.rng
        self._election_timeout = rng.uniform(
            self.config.election_timeout_min, self.config.election_timeout_max
        )
        self._last_leader_contact = self.clock.now
        if self.config.initial_leader is not None and self.node_id == self.config.initial_leader:
            self.ctx.schedule(0.0, self._start_phase1)
        self.ctx.schedule(self._election_timeout, self._check_leader_liveness)

    # ------------------------------------------------------------------ dispatch
    def _handlers(self) -> Dict[type, Any]:
        return {
            ClientRequest: self._on_client_request,
            P1a: self._on_p1a,
            P1b: self._on_p1b,
            P2a: self._on_p2a,
            P2b: self._on_p2b,
            Heartbeat: self._on_heartbeat,
            FillRequest: self._on_fill_request,
            FillReply: self._on_fill_reply,
        }

    def _relayed_handlers(self) -> Dict[type, Any]:
        # A relayed heartbeat carries no vote (its handler returns None);
        # anything else relayed takes ordinary dispatch.
        return {
            P2a: self._process_p2a,
            P1a: self._process_p1a,
            Heartbeat: self._on_heartbeat,
        }

    def _vote_handlers(self) -> Dict[type, Any]:
        return {P2b: self._on_p2b_aggregate}

    # ------------------------------------------------------------------ phase 1
    def _start_phase1(self) -> None:
        """Try to become leader with a ballot higher than anything seen."""
        if self.is_leader:
            return
        base = max(self.promised, self.ballot)
        self.ballot = base.next_for(self.node_id)
        self.promised = self.ballot
        self.count("phase1_started")
        tracker = BallotVoteTracker(self.quorum.phase1_size)
        tracker.ack(self.node_id, self._accepted_entries(self.commit_upto))
        self._phase1_tracker = tracker
        if tracker.satisfied:  # single-node cluster
            self._become_leader()
            return
        self._fanout_phase1(P1a(ballot=self.ballot, commit_upto=self.commit_upto))
        if self._phase1_timer is not None:
            self._phase1_timer.cancel()
        self._phase1_timer = self.ctx.schedule(self.config.phase1_timeout, self._phase1_timed_out)

    def _phase1_timed_out(self) -> None:
        if self.is_leader or self._phase1_tracker is None:
            return
        self.count("phase1_retry")
        self._phase1_tracker = None
        self._start_phase1()

    def _fanout_phase1(self, p1a: P1a) -> None:
        """Disseminate phase-1a through the fan-out overlay."""
        self._overlay.wide_cast(
            p1a, round_id=("p1", p1a.ballot), quorum_size=self.quorum.phase1_size
        )

    def _accepted_entries(self, after: int) -> Dict[int, Tuple[Ballot, object]]:
        """Every entry this node holds above slot ``after``, executed or not, for P1b."""
        by_slot = self.log.by_slot
        return {
            slot: (by_slot[slot].ballot, by_slot[slot].command)
            for slot in range(after + 1, self.log.max_slot + 1)
            if slot in by_slot
        }

    def _process_p1a(self, src: int, msg: P1a) -> P1b:
        """Acceptor logic for a phase-1a; returns the promise without sending it."""
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self._observe_leader(msg.ballot)
            return P1b(ballot=msg.ballot, voter=self.node_id, ok=True,
                       accepted=self._accepted_entries(msg.commit_upto))
        return P1b(ballot=self.promised, voter=self.node_id, ok=False)

    def _on_p1a(self, src: int, msg: P1a) -> None:
        self.send(src, self._process_p1a(src, msg))

    def _on_p1b(self, src: int, msg: P1b) -> None:
        if self.promised > self.ballot:
            # This candidate has since promised a higher ballot: leading at
            # its own would break that promise.
            self._phase1_tracker = None
        if self.is_leader or self._phase1_tracker is None:
            return
        if msg.ok and msg.ballot == self.ballot:
            if self._phase1_tracker.ack(msg.voter, msg.accepted):
                self._become_leader()
        elif not msg.ok and msg.ballot > self.ballot:
            # Someone promised a higher ballot; adopt it and back off.
            self.promised = max(self.promised, msg.ballot)
            self.count("phase1_preempted")

    def _become_leader(self) -> None:
        tracker = self._phase1_tracker
        self._phase1_tracker = None
        if self._phase1_timer is not None:
            self._phase1_timer.cancel()
            self._phase1_timer = None
        self.is_leader = True
        self.leader_id = self.node_id
        self.count("became_leader")
        self._overlay.complete_round(("p1", self.ballot))

        # Classic synod recovery.  Every promise, this node's own included,
        # reports each entry its voter holds above this node's commit
        # frontier, so each slot this node has not committed gets the
        # highest-ballot command any promise reported -- for a chosen slot
        # that is the chosen command -- or a no-op if none did.
        to_repropose = tracker.commands_to_repropose()
        self.next_slot = max([*to_repropose, self.log.max_slot, self.commit_upto]) + 1
        for slot in range(self.commit_upto + 1, self.next_slot):
            if not self.log.is_committed(slot):
                command = to_repropose.get(slot)
                self._propose_in_slot(NoOp() if command is None else command, (), slot)

        for client_src, request in self._pending_requests:
            self._propose(request, client_src)
        self._pending_requests.clear()
        self._schedule_heartbeat()

    # ------------------------------------------------------------------ client path
    def _on_client_request(self, src: int, msg: ClientRequest) -> None:
        self.count("client_requests")
        if self.is_leader:
            self._propose(msg, src)
        elif self.leader_id is not None and self.leader_id != self.node_id:
            # Redirect the client to the current leader.  (Paxi forwards the
            # request instead; a redirect behaves identically for throughput
            # but also works over transports where the leader has no return
            # path to a client that never connected to it.)
            client_id = msg.command.client_id if msg.command.client_id >= 0 else src
            self.send(client_id, ClientReply(
                command_uid=msg.command.uid,
                request_id=msg.command.request_id,
                client_id=client_id,
                success=False,
                leader_hint=self.leader_id,
            ))
            self.count("client_redirects")
        else:
            self._pending_requests.append((src, msg))

    def _propose(self, request: ClientRequest, client_src: int) -> None:
        command = request.command
        client_id = command.client_id if command.client_id >= 0 else client_src
        if self._batcher is not None:
            self._batcher.add(command, client_id)
            return
        self._propose_in_slot(command, ((client_id, command.request_id),))

    # ------------------------------------------------------------------ batching
    def _pipeline_has_room(self) -> bool:
        """The batcher's back-pressure test: may another slot go in flight?"""
        depth = self.config.pipeline_depth
        return depth is None or self._inflight_slots < depth

    def _reset_batching(self) -> None:
        """Drop buffered commands on leadership loss; clients retry them."""
        self._inflight_slots = 0
        if self._batcher is not None:
            self._batcher.reset()

    def _propose_in_slot(
        self, command: object, clients: Tuple[Tuple[int, int], ...], slot: Optional[int] = None
    ) -> None:
        """Run phase 2 for ``command`` in ``slot`` (default: the next free one)."""
        if slot is None:
            slot = self.next_slot
            self.next_slot += 1
        self.log.accept(slot, self.ballot, command)
        tracker = VoteTracker(self.quorum.phase2_size)
        tracker.ack(self.node_id)
        proposal = _Proposal(slot=slot, command=command, tracker=tracker, clients=clients)
        self._proposals[slot] = proposal
        self._inflight_slots += 1
        p2a = P2a(ballot=self.ballot, slot=slot, command=command, commit_upto=self.commit_upto)
        self.count("p2a_rounds")
        if tracker.satisfied:  # single-node cluster
            self._commit_slot(slot)
            return
        self._fanout_phase2(p2a, proposal)

    def _fanout_phase2(self, p2a: P2a, proposal: _Proposal) -> None:
        """Disseminate phase-2a through the fan-out overlay and arm the round retry."""
        self._overlay.wide_cast(
            p2a,
            round_id=("p2", p2a.ballot, p2a.slot),
            quorum_size=self.quorum.phase2_size,
        )
        retry_timeout = self.config.leader_retry_timeout
        if retry_timeout is not None:
            proposal.retry_timer = self.ctx.schedule(
                retry_timeout, self._retry_proposal, proposal, p2a
            )

    def _retry_proposal(self, proposal: _Proposal, p2a: P2a) -> None:
        """Leader timeout (Fig. 5b): re-send the round through the overlay.

        Under the relay overlay that means freshly chosen relays, so a relay
        that died mid-round costs one timeout instead of the round.
        """
        if proposal.committed or not self.is_leader or p2a.ballot != self.ballot:
            return
        self.count("leader_round_retries")
        self._fanout_phase2(p2a, proposal)

    # ------------------------------------------------------------------ acceptor path
    def _process_p2a(self, src: int, msg: P2a) -> P2b:
        """Acceptor logic for a phase-2a; returns the vote without sending it.

        Every follower runs this once per round, so it is one frame:
        :meth:`_observe_leader` is inlined, and the commit-frontier scan is
        entered only when the announced frontier is ahead of ours.
        """
        ballot = msg.ballot
        if ballot >= self.promised:
            self.promised = ballot
            self._last_leader_contact = self.clock.now
            if ballot.node_id != self.node_id:
                self.leader_id = ballot.node_id
                if self.is_leader and ballot > self.ballot:
                    self._step_down(ballot)
            self.log.accept(msg.slot, ballot, msg.command)
            if msg.commit_upto > self.commit_upto:
                self._apply_commit_frontier(msg.commit_upto, ballot)
            return P2b(ballot=ballot, slot=msg.slot, voter=self.node_id, ok=True)
        return P2b(ballot=self.promised, slot=msg.slot, voter=self.node_id, ok=False)

    def _on_p2a(self, src: int, msg: P2a) -> None:
        self.send(src, self._process_p2a(src, msg))

    def _on_p2b(self, src: int, msg: P2b) -> None:
        if not self.is_leader:
            return
        if not msg.ok:
            if msg.ballot > self.ballot:
                self._step_down(msg.ballot)
            return
        if msg.ballot != self.ballot:
            return
        slot = msg.slot
        proposals = self._proposals
        # Membership, not ``.get``: the leader takes one of these per vote.
        if slot not in proposals:
            return
        proposal = proposals[slot]
        if proposal.committed:
            return
        if proposal.tracker.ack(msg.voter):
            self._commit_slot(slot)

    def _on_p2b_aggregate(self, src: int, votes: Tuple[P2b, ...]) -> None:
        """The votes of one relay aggregate: :meth:`_on_p2b` on each, counted at once.

        An aggregate answers one P2a, so every vote in it is for one slot.
        The ok votes of this leader's ballot go to the slot's tracker in one
        :meth:`VoteTracker.ack_all`, and the slot commits at most once --
        what one :meth:`_on_p2b` per vote would leave.  A nack above this
        ballot ends the leadership mid-tuple, so then the tuple is replayed
        vote by vote: the votes before it still count, those after it not.
        """
        if not self.is_leader:
            return
        ballot = self.ballot
        # ``+=``, not ``append``: collecting a voter costs no call.
        voters = []
        for vote in votes:
            if vote.ok:
                if vote.ballot == ballot:
                    voters += (vote.voter,)
            elif vote.ballot > ballot:
                for each in votes:
                    self._on_p2b(src, each)
                return
        if not voters:
            return
        slot = votes[0].slot
        proposals = self._proposals
        if slot not in proposals:
            return
        proposal = proposals[slot]
        if proposal.committed:
            return
        if proposal.tracker.ack_all(voters):
            self._commit_slot(slot)

    # ------------------------------------------------------------------ commit & execute
    def _commit_slot(self, slot: int) -> None:
        proposal = self._proposals.get(slot)
        if proposal is None or proposal.committed:
            return
        proposal.committed = True
        if proposal.retry_timer is not None:
            proposal.retry_timer.cancel()
        self._overlay.complete_round(("p2", self.ballot, slot))
        self.log.commit(slot, self.ballot, proposal.command)
        self.count("slots_committed")
        if self._inflight_slots > 0:
            self._inflight_slots -= 1
        self._advance_commit_frontier()
        self._execute_ready()
        if self._batcher is not None and self._batcher.buffer and self.is_leader:
            self._batcher.pump("pipeline")  # the freed slot admits what was parked

    def _advance_commit_frontier(self) -> None:
        self.commit_upto = self.log.committed_through(self.commit_upto)

    def _execute_ready(self) -> None:
        proposals = self._proposals
        # A follower has no proposals: nobody here is waiting for results.
        results = [] if proposals else None
        store = self.store
        duplicates = store.duplicates
        executed = self.log.execute_ready(store.apply, results)
        if not executed:
            return
        if store.duplicates != duplicates:
            self.count("duplicate_commands_skipped", store.duplicates - duplicates)
        self.ctx.charge_execution(executed)
        if results is None:
            return
        for entry, result in results:
            proposal = proposals.pop(entry.slot, None)
            if proposal is None or not proposal.clients:
                continue
            command = entry.command
            if command.uid != proposal.command.uid:
                # The slot was decided with a different command than this
                # node proposed into it: a new leader's recovery re-proposal
                # (often a gap-filling NoOp) won the slot after we lost the
                # ballot.  Replying would acknowledge the client's command
                # with the winner's result -- e.g. a NoOp's empty result for
                # a GET, a phantom "not found" read the linearizability
                # checker flags.  Stay silent, once for a whole batch; every
                # client retries against the new leader.  (Fuzz-found,
                # seed 257.)
                self.count("orphaned_proposal_replies_suppressed")
                continue
            self._reply_to_clients(proposal.clients, command, result, self.node_id)

    def _apply_commit_frontier(self, commit_upto: int, ballot: Ballot) -> None:
        """Follower-side phase-3: learn the frontier ``commit_upto`` announced under ``ballot``.

        :meth:`ReplicatedLog.commit_announced` commits what the announcement
        vouches for.  A slot it cannot commit -- no entry, or one of another
        ballot -- holds the frontier below ``commit_upto``, and the missing
        slots are asked of the leader after ``fill_gap_timeout``.
        """
        if commit_upto <= self.commit_upto:
            return
        self.commit_upto = self.log.commit_announced(commit_upto, ballot, self.commit_upto)
        self._execute_ready()
        if self.commit_upto < commit_upto and not self._fill_pending and self.leader_id is not None:
            self._fill_pending = True
            self.ctx.schedule(self.config.fill_gap_timeout, self._request_fill, commit_upto)

    def _request_fill(self, commit_upto: int) -> None:
        self._fill_pending = False
        if self.is_leader or self.leader_id is None:
            return
        missing = tuple(
            slot for slot in range(self.log.next_execute_slot, commit_upto + 1)
            if not self.log.is_committed(slot)
        )
        if missing:
            self.count("fill_requests")
            self.send(self.leader_id, FillRequest(slots=missing, requester=self.node_id))

    def _on_fill_request(self, src: int, msg: FillRequest) -> None:
        entries = []
        for slot in msg.slots:
            entry = self.log.get(slot)
            if entry is not None and entry.committed:
                entries.append((slot, entry.ballot, entry.command))
        if entries:
            self.send(msg.requester, FillReply(entries=tuple(entries)))

    def _on_fill_reply(self, src: int, msg: FillReply) -> None:
        for slot, ballot, command in msg.entries:
            self.log.commit(slot, ballot, command)
        self._advance_commit_frontier()
        self._execute_ready()

    # ------------------------------------------------------------------ liveness
    def _observe_leader(self, ballot: Ballot) -> None:
        self._last_leader_contact = self.clock.now
        # ballot.node_id is the proposer (.leader is a property alias; the
        # plain field skips a Python-level call on every message).
        if ballot.node_id != self.node_id:
            self.leader_id = ballot.node_id
            if self.is_leader and ballot > self.ballot:
                self._step_down(ballot)

    def _step_down(self, higher: Ballot) -> None:
        self.count("stepped_down")
        self.is_leader = False
        self.promised = max(self.promised, higher)
        self.leader_id = higher.leader
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None
        self._reset_batching()

    def _schedule_heartbeat(self) -> None:
        if not self.is_leader:
            return
        self._heartbeat_timer = self.ctx.schedule(self.config.heartbeat_interval, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        if not self.is_leader:
            return
        heartbeat = Heartbeat(ballot=self.ballot, commit_upto=self.commit_upto)
        self._fanout_heartbeat(heartbeat)
        self._schedule_heartbeat()

    def _fanout_heartbeat(self, heartbeat: Heartbeat) -> None:
        """Disseminate the heartbeat; never thinned (every follower needs it)."""
        self._overlay.wide_cast(heartbeat, expects_response=False)

    def _on_heartbeat(self, src: int, msg: Heartbeat) -> None:
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self._observe_leader(msg.ballot)
            self._apply_commit_frontier(msg.commit_upto, msg.ballot)

    def _check_leader_liveness(self) -> None:
        if not self.is_leader:
            silent_for = self.clock.now - self._last_leader_contact
            if silent_for >= self._election_timeout:
                self.count("election_triggered")
                self._start_phase1()
                self._last_leader_contact = self.clock.now
        self.ctx.schedule(self._election_timeout, self._check_leader_liveness)

    # ------------------------------------------------------------------ crash / recover
    def on_crash(self) -> None:
        # Promised ballot, log and store model stable storage and survive;
        # leader-volatile state (and overlay session state) does not.
        super().on_crash()
        self.is_leader = False
        self._proposals.clear()
        self._pending_requests.clear()
        self._phase1_tracker = None
        # The machine's crash cancelled every timer of this replica, a
        # pending _request_fill too: a flag left set would block every
        # later fill.
        self._heartbeat_timer = None
        self._fill_pending = False
        self._reset_batching()

    def on_recover(self) -> None:
        self._last_leader_contact = self.clock.now
        self.ctx.schedule(self._election_timeout, self._check_leader_liveness)

    # ------------------------------------------------------------------ introspection
    def status(self) -> Dict[str, object]:
        """Diagnostic snapshot used by tests and examples."""
        return {
            "node": self.node_id,
            "is_leader": self.is_leader,
            "leader_id": self.leader_id,
            "ballot": tuple(self.ballot),
            "promised": tuple(self.promised),
            "commit_upto": self.commit_upto,
            "executed": self.log.executed_count,
            "log_size": len(self.log),
            "kv_size": len(self.store),
        }
