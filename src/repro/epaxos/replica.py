"""EPaxos replica.

Implements the commit protocol of Egalitarian Paxos (Moraru et al., SOSP'13)
at the level of detail the paper's comparison needs:

* every replica is an opportunistic command leader for the client requests it
  receives;
* PreAccept computes a sequence number and dependency set from per-key
  conflict tracking, and is sent to all other replicas;
* the fast path commits after a super-majority of unchanged replies; any
  changed reply forces the slow path (an Accept round on the union of
  dependencies followed by commit);
* commits are broadcast to everyone and executed by walking the dependency
  graph (SCCs, sequence-number order).

Robustness under the adversarial harness (duplicated, dropped and reordered
messages; crashed nodes): PreAccept/Accept replies are deduplicated per
voter, the per-key conflict index is updated monotonically so stale
redeliveries cannot drop dependency edges, and execution is at-most-once per
client session (a retried command that lands in a second instance applies
once and answers from the cached result).

Communication fan-out is pluggable (:mod:`repro.overlay`): PreAccept and
Accept rounds, and the commit notifications, route through the replica's
:class:`~repro.overlay.base.FanoutOverlay`.  ``DirectFanout`` reproduces
the classic all-to-all broadcast; ``RelayFanout`` sends each round leader →
relays → group members and aggregates the replies back up (the paper's
PigPaxos overlay applied to the leaderless protocol); ``ThriftyFanout``
targets only a fast-quorum-sized subset and falls back to a full broadcast
on timeout.  Commit notifications are never thinned -- every replica needs
them or its dependency graph stalls -- so only the voting legs are
overlay-optimised.

Failure recovery (the "explicit prepare" path of Moraru et al., Section
4.7) is implemented with per-instance ballots: a replica whose execution
stays blocked on an uncommitted dependency past
``ProtocolConfig.recovery_timeout`` claims a higher ballot at a majority via
``EPrepare`` and applies the standard decision table to the replies -- adopt
any commit it learns of, finish any accept it finds, re-run phase 2 with the
attributes of a possible fast-path commit (enough identical unchanged
default-ballot PreAccepts), re-run PreAccept on the slow path when only
partial PreAccept evidence survives, and otherwise commit a dependency-
preserving no-op so the orphan can never block the cluster forever.  The
recovery deadline is tracked *lazily* from ``_try_execute`` -- a run in
which no instance ever blocks past the deadline schedules no extra events
and stays bit-for-bit identical to a recovery-free build.  The knob
defaults to ``DEFAULT_RECOVERY_TIMEOUT`` (0.25 s, on); ``None`` restores
the historical degraded mode.  Reads still execute through the full commit
path (no read leases).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.epaxos.graph import DependencyGraph
from repro.epaxos.messages import (
    Ballot,
    EAccept,
    EAcceptReply,
    ECommit,
    EPreAccept,
    EPreAcceptReply,
    EPrepare,
    EPrepareReply,
    InstanceId,
    initial_ballot,
)
from repro.net.message import Message
from repro.overlay.base import FanoutOverlay
from repro.protocol.base import Replica
from repro.protocol.batching import Batcher
from repro.protocol.config import ProtocolConfig
from repro.protocol.messages import ClientRequest
from repro.quorum.systems import FastQuorum
from repro.statemachine.command import Command, CommandBatch, CommandResult, NoOp
from repro.statemachine.kvstore import KVStore
from repro.statemachine.sessions import ClientSessionCache

_PREACCEPTED = "preaccepted"
_ACCEPTED = "accepted"
_COMMITTED = "committed"
_EXECUTED = "executed"
#: Placeholder status for a ballot-promise on an instance whose command this
#: replica has never seen (created by an EPrepare probing an unknown
#: instance).  Never reported as decided, skipped by every checker.
_UNKNOWN = "unknown"


@dataclass
class _Instance:
    """A replica's view of one EPaxos instance."""

    instance: InstanceId
    command: Optional[Command]
    seq: int
    deps: FrozenSet[InstanceId]
    status: str = _PREACCEPTED
    # Command-leader bookkeeping.  Votes are tracked as *sets of voter ids*,
    # never integer counters: the network may retransmit or duplicate a
    # reply, and a duplicated vote must not fake a quorum.
    leader_here: bool = False
    #: Reply routing for an instance led here: one ``(client_id,
    #: request_id)`` pair per command, in command order -- a single pair
    #: for a plain command, one per sub-command for a :class:`CommandBatch`.
    clients: Tuple[Tuple[int, int], ...] = ()
    preaccept_voters: Set[int] = field(default_factory=set)
    preaccept_changed: bool = False
    merged_seq: int = 0
    merged_deps: FrozenSet[InstanceId] = frozenset()
    accept_voters: Set[int] = field(default_factory=set)
    # Ballot state for explicit-prepare recovery.  ``ballot`` is the highest
    # ballot this replica has seen (promised) for the instance;
    # ``attr_ballot`` is the ballot at which seq/deps/command were last
    # written (a bare EPrepare bumps the former but not the latter).
    # ``local_changed`` records whether this replica's PreAccept answer
    # modified the proposed attributes -- the recovery fast-path-possible
    # test needs it.  Defaults are normalised to the instance's default
    # ballot in __post_init__ so plain construction stays correct.
    ballot: Optional[Ballot] = None
    attr_ballot: Optional[Ballot] = None
    local_changed: bool = False
    retry_timer: Optional[object] = None

    def __post_init__(self) -> None:
        if self.ballot is None:
            self.ballot = initial_ballot(self.instance)
        if self.attr_ballot is None:
            self.attr_ballot = self.ballot


@dataclass
class _Recovery:
    """Coordinator state for one in-flight explicit-prepare recovery."""

    instance: InstanceId
    ballot: Ballot
    phase: str = "prepare"  # "prepare" | "preaccept" | "accept"
    #: Prepare replies keyed by voter (per-voter, duplicates idempotent).
    replies: Dict[int, EPrepareReply] = field(default_factory=dict)
    #: Vote sets for the re-run PreAccept / final Accept phases.
    preaccept_voters: Set[int] = field(default_factory=set)
    accept_voters: Set[int] = field(default_factory=set)
    #: Attributes being driven to commit (set when leaving the prepare phase).
    command: Optional[Command] = None
    seq: int = 0
    deps: FrozenSet[InstanceId] = frozenset()
    noop: bool = False
    #: Highest conflicting ballot observed in nacks (retry bumps past it).
    preempted_by: Optional[Ballot] = None
    timer: Optional[object] = None


class EPaxosReplica(Replica):
    """An EPaxos node: opportunistic command leader + acceptor + executor."""

    protocol_name = "epaxos"

    #: Per-key bound on remembered client sessions; far above any plausible
    #: number of distinct clients concurrently retrying on one key.
    MAX_CLIENTS_PER_KEY = 1024

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        quorum: Optional[FastQuorum] = None,
        overlay: Optional[FanoutOverlay] = None,
    ) -> None:
        super().__init__(overlay=overlay)
        self.config = config or ProtocolConfig()
        self._quorum = quorum
        self.store = KVStore()
        self.instances: Dict[InstanceId, _Instance] = {}
        self.graph = DependencyGraph()
        self._next_instance = 0
        # Per-key conflict index: key -> {origin replica -> highest instance
        # number from that origin touching the key}.  One slot per origin
        # (the canonical EPaxos dependency shape): a single "latest
        # instance" pointer cannot represent two conflicting same-seq
        # instances from different leaders, and whichever it dropped lost
        # its dependency edge.  Updated monotonically (see
        # :meth:`_record_key`).
        self._key_index: Dict[str, Dict[int, int]] = {}
        self._pending_execution: Set[InstanceId] = set()
        # Client sessions make execution at-most-once: a client retry that
        # lands on a different opportunistic leader creates a *second*
        # instance carrying the same command, and both instances commit and
        # execute everywhere.  The two instances carry the same key, so they
        # conflict and execute in the same relative order on every replica --
        # filtering the duplicate at apply time therefore keeps all state
        # machines identical.  Unlike Multi-Paxos (total order), EPaxos only
        # orders *conflicting* commands, so every eviction decision must
        # depend solely on same-key events or it diverges across replicas
        # (cross-key interleaving legally differs).  Hence one
        # ClientSessionCache *per key*: both its inner request window and
        # its outer client LRU are driven only by that key's applies, which
        # are identically ordered everywhere.  Memory stays proportional to
        # the store itself: keys x bounded sessions x bounded window.
        self._session_window = self.config.session_window
        self._client_sessions: Dict[str, ClientSessionCache] = {}
        # Execution order as applied locally, for the cross-replica
        # execution-consistency checker (repro.checkers.invariants).
        self.executed_order: List[InstanceId] = []
        # Explicit-prepare recovery (on by default since the fuzzing PR;
        # None restores the historical degraded mode).  The
        # deadline is tracked lazily: _try_execute stamps the first virtual
        # time it finds execution blocked on an uncommitted dependency and
        # only *checks* the stamp on later passes -- no timer is ever
        # scheduled for an instance that is not already blocked.
        self._recovery_timeout = self.config.recovery_timeout
        self._first_blocked: Dict[InstanceId, float] = {}
        #: Deadline timers for stamped deps, so recovery still fires when
        #: the cluster goes quiet (no further commits re-entering
        #: _try_execute).  Armed only for instances that are already
        #: blocked, never speculatively.
        self._blocked_timers: Dict[InstanceId, object] = {}
        #: Next virtual time the blocked-dependency sweep may run.  The
        #: sweep walks pending x deps, so it is throttled to a quarter of
        #: the recovery deadline -- stamps land at most deadline/4 late,
        #: recovery fires within 1.25x the knob, and the per-commit cost
        #: between sweeps is a single comparison (the PR-4 rule: no
        #: per-message rescans on hot paths).
        self._next_blocked_scan = 0.0
        self._recoveries: Dict[InstanceId, _Recovery] = {}
        # Leader-side round retry (the PigPaxos Fig-5b behaviour, optional
        # here): an in-flight PreAccept/Accept round is re-wide_cast after
        # this long without a quorum.  None (default) keeps the historical
        # rely-on-client-retries behaviour.
        self._leader_retry_timeout = self.config.leader_retry_timeout
        # Command batching: this replica, as an opportunistic leader, leads
        # one instance for each flush of the shared batcher.  EPaxos has no
        # pipeline to park commands behind (``pipeline_depth`` is a rejected
        # knob), so the batcher gets no back-pressure test and a delay bound
        # is what creates batching opportunities here; with it unset every
        # command proposes immediately.  No batcher exists (zero events,
        # zero metric registrations) at the default batch_max_commands == 1.
        self._batcher: Optional[Batcher] = None
        if self.config.batch_max_commands > 1:
            self._batcher = Batcher(
                self, self.config.batch_max_commands, self.config.batch_max_delay,
                propose=self._lead_instance,
            )

    # ------------------------------------------------------------------ setup
    @property
    def quorum(self) -> FastQuorum:
        if self._quorum is None:
            self._quorum = FastQuorum(self.cluster_size)
        return self._quorum

    def start(self) -> None:
        """EPaxos needs no leader election; nothing to bootstrap."""

    # ------------------------------------------------------------------ dispatch
    def _handlers(self) -> Dict[type, Any]:
        return {
            ClientRequest: self._on_client_request,
            EPreAccept: self._on_preaccept,
            EPreAcceptReply: self._on_preaccept_reply,
            EAccept: self._on_accept,
            EAcceptReply: self._on_accept_reply,
            ECommit: self._on_commit,
            EPrepare: self._on_prepare,
            EPrepareReply: self._on_prepare_reply,
        }

    # ------------------------------------------------------------------ overlay host hooks
    def process_for_overlay(self, src: int, inner: Message) -> Optional[Message]:
        """Apply a relayed inner message locally; return the vote (if any).

        Called by the relay overlay on relays and leaf followers so the
        PreAccept/Accept vote can be aggregated up the tree instead of sent
        straight back to the command leader.
        """
        kind = type(inner)
        if kind is EPreAccept:
            return self._handle_preaccept(inner)
        if kind is EAccept:
            return self._handle_accept(inner)
        if kind is EPrepare:
            return self._handle_prepare(inner)
        if kind is ECommit:
            self._on_commit(src, inner)
            return None
        self.on_message(src, inner)
        return None

    # ------------------------------------------------------------------ conflict tracking
    def _conflicts_for(self, command: Command, exclude: Optional[InstanceId] = None) -> Tuple[int, FrozenSet[InstanceId]]:
        """Sequence number and dependency set implied by the local key index."""
        if type(command) is CommandBatch:
            # A batch depends on everything any of its commands depends on;
            # its sequence number must exceed every conflicting instance's.
            # Acceptors recompute this on PreAccept exactly like for a plain
            # command, so the merged attributes stay key-accurate.
            seq = 1
            merged: Set[InstanceId] = set()
            for sub in command.commands:
                sub_seq, sub_deps = self._conflicts_for(sub, exclude)
                if sub_seq > seq:
                    seq = sub_seq
                merged |= sub_deps
            return seq, frozenset(merged)
        key_index = self._key_index
        if command.key not in key_index:
            return 1, frozenset()
        # The set is filled in the index's insertion order, exactly as one
        # add() per entry would: the frozenset copied from it iterates in an
        # order that depends on that history, and the planner's walk (hence
        # every replica's execution order) follows it.  Built from anything
        # else -- e.g. frozenset(index.items()) directly -- it would iterate
        # differently and move executed orders.
        deps = {last for last in key_index[command.key].items() if last != exclude}
        seq = 1
        instances = self.instances
        # lint: ok(no-unordered-iteration) a running maximum; order-insensitive
        for last in deps:
            if last in instances and instances[last].seq >= seq:
                seq = instances[last].seq + 1
        return seq, frozenset(deps)

    def _record_key(self, command: Command, instance: InstanceId) -> None:
        """Record ``instance`` as its origin's latest instance on the key.

        Instance numbers from one origin are assigned in creation order, so
        per origin "highest number" is both the newest instance and the one
        with the highest sequence number -- which makes the update rule
        monotonic for free.  Messages can be retransmitted, duplicated or
        delivered late: a stale PreAccept/Commit for an *old* instance must
        not overwrite a newer index entry, or every subsequent command on
        that key silently loses its dependency edge to the newer instance
        (and can regress its sequence number).
        """
        kind = type(command)
        if kind is CommandBatch:
            # The batch's instance is the latest same-origin instance on
            # *every* key it touches; later commands on any of those keys
            # must depend on it.
            for sub in command.commands:
                self._record_key(sub, instance)
            return
        if kind is NoOp:
            # Recovery no-ops touch no key: nothing to conflict with.
            return
        origin, number = instance
        key_index = self._key_index
        if command.key not in key_index:
            key_index[command.key] = {origin: number}
            return
        index = key_index[command.key]
        if origin in index and index[origin] >= number:
            if index[origin] > number:
                self.count("key_index_stale_updates_skipped")
            return
        index[origin] = number

    # ------------------------------------------------------------------ command leader path
    def _on_client_request(self, src: int, msg: ClientRequest) -> None:
        self.count("client_requests")
        command = msg.command
        client_id = command.client_id if command.client_id >= 0 else src
        batcher = self._batcher
        if batcher is None:
            self._lead_instance(command, ((client_id, command.request_id),))
            return
        buffer = batcher.buffer
        if buffer and any(command.conflicts_with(queued) for queued, _ in buffer):
            # Batches hold pairwise non-conflicting commands only: flush the
            # standing buffer before a conflicting arrival joins it (batch
            # order would otherwise have to encode the conflict ordering
            # the instance graph exists to provide).
            batcher.pump("conflict", force=True)
        batcher.add(command, client_id)

    def _lead_instance(self, command: Command, clients: Tuple[Tuple[int, int], ...]) -> None:
        self._next_instance += 1
        instance_id: InstanceId = (self.node_id, self._next_instance)
        seq, deps = self._conflicts_for(command)
        instance = _Instance(
            instance=instance_id,
            command=command,
            seq=seq,
            deps=deps,
            status=_PREACCEPTED,
            leader_here=True,
            clients=clients,
            merged_seq=seq,
            merged_deps=deps,
        )
        self.instances[instance_id] = instance
        self._record_key(command, instance_id)
        self.count("instances_led")
        # Dependency bookkeeping / conflict tracking cost (see NodeCPUModel docs).
        self.ctx.charge_overhead(1.0)

        if self.cluster_size == 1:
            self._commit_instance(instance, seq, deps)
            return
        preaccept = EPreAccept(instance=instance_id, command=command, seq=seq, deps=deps)
        self._overlay.wide_cast(
            preaccept,
            round_id=("pre", instance_id),
            quorum_size=self.quorum.fast_path_size,
        )
        if self._leader_retry_timeout is not None:
            instance.retry_timer = self.ctx.schedule(
                self._leader_retry_timeout, self._retry_round, instance_id
            )

    def _retry_round(self, instance_id: InstanceId) -> None:
        """Leader-side round retry: re-wide_cast the in-flight phase.

        The EPaxos counterpart of PigPaxos' Fig-5b leader retry: when a
        round stalls (a relay died mid-round, a thrifty target was severed),
        the command leader re-sends the current phase's message through the
        overlay -- which builds fresh relay trees / resamples the thrifty
        subset -- instead of waiting for the client to time out and retry
        through a different leader.
        """
        instance = self.instances.get(instance_id)
        if (
            instance is None
            or not instance.leader_here
            or instance.status in (_COMMITTED, _EXECUTED)
            or instance.ballot != initial_ballot(instance_id)
        ):
            return
        self.count("leader_round_retries")
        if instance.status == _PREACCEPTED:
            message = EPreAccept(
                instance=instance_id, command=instance.command,
                seq=instance.seq, deps=instance.deps,
            )
            round_id, quorum_size = ("pre", instance_id), self.quorum.fast_path_size
        else:
            message = EAccept(
                instance=instance_id, command=instance.command,
                seq=instance.seq, deps=instance.deps,
            )
            round_id, quorum_size = ("acc", instance_id), self.quorum.phase2_size
        self._overlay.wide_cast(message, round_id=round_id, quorum_size=quorum_size)
        instance.retry_timer = self.ctx.schedule(
            self._leader_retry_timeout, self._retry_round, instance_id
        )

    @staticmethod
    def _register_vote(voters: Set[int], voter: int) -> bool:
        """Record ``voter``; False when this voter already voted (duplicate)."""
        if voter in voters:
            return False
        voters.add(voter)
        return True

    def _on_preaccept_reply(self, src: int, msg: EPreAcceptReply) -> None:
        recovery = self._recoveries.get(msg.instance)
        if recovery is not None and recovery.phase == "preaccept":
            if msg.ballot == recovery.ballot:
                self._on_recovery_preaccept_reply(recovery, msg)
                return
            if not msg.ok and msg.ballot > recovery.ballot:
                self._note_preempted(recovery, msg.ballot)
                return
        instance = self.instances.get(msg.instance)
        if instance is None or not instance.leader_here or instance.status != _PREACCEPTED:
            return
        if not msg.ok or msg.ballot != initial_ballot(msg.instance):
            # A nack (some recovery claimed a higher ballot at this voter)
            # or a stray recovery-round reply: never count it towards the
            # original round's quorum.  The instance will be finished by the
            # recovery coordinator; the client's retry path stays the net.
            self.count("preaccept_replies_rejected")
            return
        if msg.voter == self.node_id or not self._register_vote(instance.preaccept_voters, msg.voter):
            self.count("duplicate_preaccept_replies")
            return
        instance.merged_seq = max(instance.merged_seq, msg.seq)
        instance.merged_deps = instance.merged_deps | msg.deps
        if msg.changed:
            instance.preaccept_changed = True

        # +1 accounts for the command leader's own vote.
        if len(instance.preaccept_voters) + 1 >= self.quorum.fast_path_size:
            if not instance.preaccept_changed:
                self.count("fast_path_commits")
                self._commit_instance(instance, instance.seq, instance.deps)
            else:
                self.count("slow_path_rounds")
                self._overlay.complete_round(("pre", instance.instance))
                instance.status = _ACCEPTED
                instance.seq = instance.merged_seq
                instance.deps = instance.merged_deps
                instance.accept_voters = set()
                accept = EAccept(
                    instance=instance.instance,
                    command=instance.command,
                    seq=instance.seq,
                    deps=instance.deps,
                )
                self._overlay.wide_cast(
                    accept,
                    round_id=("acc", instance.instance),
                    quorum_size=self.quorum.phase2_size,
                )

    def _on_accept_reply(self, src: int, msg: EAcceptReply) -> None:
        recovery = self._recoveries.get(msg.instance)
        if recovery is not None and recovery.phase == "accept":
            if msg.ballot == recovery.ballot:
                self._on_recovery_accept_reply(recovery, msg)
                return
            if not msg.ok and msg.ballot > recovery.ballot:
                self._note_preempted(recovery, msg.ballot)
                return
        instance = self.instances.get(msg.instance)
        if instance is None or not instance.leader_here or instance.status != _ACCEPTED:
            return
        if not msg.ok or msg.ballot != initial_ballot(msg.instance):
            return
        if msg.voter == self.node_id or not self._register_vote(instance.accept_voters, msg.voter):
            self.count("duplicate_accept_replies")
            return
        if len(instance.accept_voters) + 1 >= self.quorum.phase2_size:
            self._commit_instance(instance, instance.seq, instance.deps)

    def _commit_instance(self, instance: _Instance, seq: int, deps: FrozenSet[InstanceId]) -> None:
        if instance.status in (_COMMITTED, _EXECUTED):
            return
        self._overlay.complete_round(("pre", instance.instance))
        self._overlay.complete_round(("acc", instance.instance))
        if instance.retry_timer is not None:
            instance.retry_timer.cancel()
            instance.retry_timer = None
        self._clear_recovery_state(instance.instance)
        instance.status = _COMMITTED
        instance.seq = seq
        instance.deps = deps
        self.graph.add_committed(instance.instance, seq, deps)
        self.count("instances_committed")
        if self.peers:
            # Commits are fire-and-forget and must reach *every* replica
            # (a missed commit stalls every dependent instance), so the
            # overlay never thins them -- relay trees forward them, thrifty
            # falls back to plain broadcast.
            commit = ECommit(instance=instance.instance, command=instance.command, seq=seq, deps=deps)
            self._overlay.wide_cast(commit, expects_response=False)
        self._pending_execution.add(instance.instance)
        self._try_execute()

    # ------------------------------------------------------------------ acceptor path
    def _handle_preaccept(self, msg: EPreAccept) -> EPreAcceptReply:
        """Acceptor logic for a PreAccept; returns the vote without sending it."""
        existing = self.instances.get(msg.instance)
        if existing is not None and msg.ballot < existing.ballot:
            # A recovery claimed a higher ballot here: the original round
            # (or a stale recovery round) must not make progress against it.
            self.count("preaccepts_rejected_ballot")
            return EPreAcceptReply(
                instance=msg.instance, voter=self.node_id, ok=False,
                seq=existing.seq, deps=existing.deps, changed=False,
                ballot=existing.ballot,
            )
        local_seq, local_deps = self._conflicts_for(msg.command, exclude=msg.instance)
        merged_seq = max(msg.seq, local_seq)
        merged_deps = msg.deps | local_deps
        changed = merged_seq != msg.seq or merged_deps != msg.deps
        if existing is None:
            self.instances[msg.instance] = _Instance(
                instance=msg.instance,
                command=msg.command,
                seq=merged_seq,
                deps=merged_deps,
                status=_PREACCEPTED,
                ballot=msg.ballot,
                attr_ballot=msg.ballot,
                local_changed=changed,
            )
        elif existing.status in (_PREACCEPTED, _UNKNOWN):
            # Update in place rather than replacing the object: a recovery
            # re-PreAccept reaching the still-alive original leader must not
            # clobber its leader bookkeeping (leader_here/clients/retry
            # timer) -- the client still deserves its reply once the
            # recovered command commits.  For default-ballot duplicates the
            # written fields are identical to a replacement.
            existing.command = msg.command
            existing.seq = merged_seq
            existing.deps = merged_deps
            existing.status = _PREACCEPTED
            existing.ballot = msg.ballot
            existing.attr_ballot = msg.ballot
            existing.local_changed = changed
        elif msg.ballot > existing.ballot:
            # Accepted/committed state outlives any re-delivered PreAccept,
            # but the ballot promise is still honoured so later lower-ballot
            # rounds are rejected.  (The reply below reports the freshly
            # merged attributes exactly as it always has -- stale-phase
            # replies are ignored at their leader, and keeping the bytes
            # identical preserves recorded fingerprints.)
            existing.ballot = msg.ballot
        self._record_key(msg.command, msg.instance)
        self.count("preaccepts_handled")
        # Dependency bookkeeping / conflict tracking cost (see NodeCPUModel docs).
        self.ctx.charge_overhead(1.0)
        return EPreAcceptReply(
            instance=msg.instance,
            voter=self.node_id,
            ok=True,
            seq=merged_seq,
            deps=merged_deps,
            changed=changed,
            ballot=msg.ballot,
        )

    def _on_preaccept(self, src: int, msg: EPreAccept) -> None:
        self.send(src, self._handle_preaccept(msg))

    def _handle_accept(self, msg: EAccept) -> EAcceptReply:
        """Acceptor logic for a slow-path Accept; returns the vote without sending it."""
        instance = self.instances.get(msg.instance)
        if instance is None:
            instance = _Instance(
                instance=msg.instance, command=msg.command, seq=msg.seq,
                deps=msg.deps, ballot=msg.ballot, attr_ballot=msg.ballot,
            )
            self.instances[msg.instance] = instance
        elif msg.ballot < instance.ballot:
            self.count("accepts_rejected_ballot")
            return EAcceptReply(
                instance=msg.instance, voter=self.node_id, ok=False,
                ballot=instance.ballot,
            )
        if instance.status not in (_COMMITTED, _EXECUTED):
            instance.command = msg.command
            instance.seq = msg.seq
            instance.deps = msg.deps
            instance.status = _ACCEPTED
            instance.ballot = msg.ballot
            instance.attr_ballot = msg.ballot
        self._record_key(msg.command, msg.instance)
        return EAcceptReply(
            instance=msg.instance, voter=self.node_id, ok=True, ballot=msg.ballot
        )

    def _on_accept(self, src: int, msg: EAccept) -> None:
        self.send(src, self._handle_accept(msg))

    def _on_commit(self, src: int, msg: ECommit) -> None:
        instance = self.instances.get(msg.instance)
        if instance is None:
            instance = _Instance(instance=msg.instance, command=msg.command, seq=msg.seq, deps=msg.deps)
            self.instances[msg.instance] = instance
        if instance.status == _EXECUTED:
            return
        if (
            instance.status == _COMMITTED
            and instance.command is not None
            and getattr(instance.command, "uid", None) != getattr(msg.command, "uid", None)
        ):
            # Two different commits for one instance is a protocol-safety
            # violation (e.g. a broken recovery no-op'ing a decided
            # instance).  Keep the first commit rather than silently
            # converging on the last writer: the post-run instance-agreement
            # checker compares final states across replicas, and
            # overwriting here would destroy exactly the divergence it
            # exists to flag.
            self.count("conflicting_commit_overwrites_refused")
            return
        # Adopt the committed command too: a recovery may have finished this
        # instance with attributes (or a no-op) differing from the PreAccept
        # this replica recorded, and every checker compares decided
        # (seq, deps, command) triples across replicas.
        instance.command = msg.command
        instance.seq = msg.seq
        instance.deps = msg.deps
        instance.status = _COMMITTED
        if instance.retry_timer is not None:
            instance.retry_timer.cancel()
            instance.retry_timer = None
        self._clear_recovery_state(msg.instance)
        self._record_key(msg.command, msg.instance)
        self.graph.add_committed(msg.instance, msg.seq, msg.deps)
        self._pending_execution.add(msg.instance)
        self._try_execute()

    # ------------------------------------------------------------------ execution
    def _try_execute(self) -> None:
        """Attempt to execute every committed-but-unexecuted instance we know of."""
        if not self._pending_execution:
            return
        progressed = True
        total_visited = 0
        while progressed:
            progressed = False
            for instance_id in sorted(self._pending_execution):
                order, visited = self.graph.execution_order(instance_id)
                total_visited += visited
                if not order:
                    continue
                for ready_id in order:
                    self._execute_instance(ready_id)
                    self._pending_execution.discard(ready_id)
                progressed = True
        if total_visited:
            self.ctx.charge_graph_work(total_visited)
        if (
            self._recovery_timeout is not None
            and self._pending_execution
            and self.ctx.now >= self._next_blocked_scan
        ):
            self._next_blocked_scan = self.ctx.now + self._recovery_timeout * 0.25
            self._maybe_recover_blocked()

    # ------------------------------------------------------------------ explicit-prepare recovery
    def _maybe_recover_blocked(self) -> None:
        """Lazy recovery arming: stamp blocked deps, recover the overdue ones.

        Called from :meth:`_try_execute` -- throttled to once per quarter
        deadline -- and only when recovery is enabled and some instance is
        still pending.  Each *newly* blocked dependency gets a stamp plus
        one deadline timer, so recovery fires even if the cluster then goes
        completely quiet; dependencies that commit in time cancel the timer
        in :meth:`_clear_recovery_state` (or on the next sweep).  No event
        is ever scheduled for an instance that is not already blocked, so
        runs in which nothing blocks -- every fault-free run, and any run
        with the knob unset -- schedule nothing and keep their recorded
        fingerprints.
        """
        now = self.ctx.now
        blocked_now: Set[InstanceId] = set()
        committed = self.graph.is_committed
        deps_of = self.graph.deps_of
        # lint: ok(no-unordered-iteration) accumulates into the blocked_now set; consumers iterate it via sorted() below
        for pending_id in self._pending_execution:
            for dep in deps_of(pending_id):
                if not committed(dep):
                    blocked_now.add(dep)
        first_blocked = self._first_blocked
        for dep in [d for d in first_blocked if d not in blocked_now]:
            del first_blocked[dep]
            timer = self._blocked_timers.pop(dep, None)
            if timer is not None:
                timer.cancel()
        deadline = self._recovery_timeout
        for dep in sorted(blocked_now):
            since = first_blocked.get(dep)
            if since is None:
                first_blocked[dep] = now
                self._blocked_timers[dep] = self.ctx.schedule(
                    deadline, self._blocked_deadline, dep
                )
            elif now - since >= deadline and dep not in self._recoveries:
                # Opportunistic path: the deadline timer may already have
                # fired (and its recovery finished or been superseded); a
                # still-blocked overdue dep is re-recovered from here.
                self._start_recovery(dep)

    def _blocked_deadline(self, dep: InstanceId) -> None:
        """The deadline timer for a stamped dependency fired."""
        self._blocked_timers.pop(dep, None)
        if (
            dep in self._first_blocked
            and dep not in self._recoveries
            and not self.graph.is_committed(dep)
        ):
            self._start_recovery(dep)

    def _next_recovery_ballot(self, instance_id: InstanceId, floor: Optional[Ballot] = None) -> Ballot:
        """A ballot above everything this replica has seen for the instance."""
        number = 0
        instance = self.instances.get(instance_id)
        if instance is not None:
            number = instance.ballot[0]
        if floor is not None and floor[0] > number:
            number = floor[0]
        return (number + 1, self.node_id)

    def _start_recovery(self, instance_id: InstanceId, floor: Optional[Ballot] = None) -> None:
        """Open an explicit-prepare round for a stuck instance."""
        instance = self.instances.get(instance_id)
        if instance is not None and instance.status in (_COMMITTED, _EXECUTED):
            return
        ballot = self._next_recovery_ballot(instance_id, floor)
        recovery = _Recovery(instance=instance_id, ballot=ballot)
        self._recoveries[instance_id] = recovery
        self.count("recoveries_started")
        prepare = EPrepare(instance=instance_id, ballot=ballot)
        # Record the coordinator's own state first (it is one of the quorum).
        self._record_prepare_reply(recovery, self._handle_prepare(prepare))
        if self._recoveries.get(instance_id) is not recovery or recovery.phase != "prepare":
            # Our own reply alone already decided the round (tiny clusters).
            return
        self._overlay.wide_cast(
            prepare,
            round_id=("prep", instance_id, ballot),
            quorum_size=self.quorum.phase1_size,
        )
        recovery.timer = self.ctx.schedule(
            self._recovery_timeout, self._recovery_retry, instance_id, ballot
        )

    def _recovery_retry(self, instance_id: InstanceId, ballot: Ballot) -> None:
        """The recovery round itself stalled (or was preempted): run it again."""
        recovery = self._recoveries.get(instance_id)
        if recovery is None or recovery.ballot != ballot:
            return
        floor = recovery.preempted_by
        self._cancel_recovery_rounds(recovery)
        del self._recoveries[instance_id]
        self.count("recovery_retries")
        self._start_recovery(instance_id, floor=floor)

    def _note_preempted(self, recovery: _Recovery, ballot: Ballot) -> None:
        """A voter promised a higher ballot; remember it for the retry."""
        if recovery.preempted_by is None or ballot > recovery.preempted_by:
            recovery.preempted_by = ballot

    def _cancel_recovery_rounds(self, recovery: _Recovery) -> None:
        if recovery.timer is not None:
            recovery.timer.cancel()
            recovery.timer = None
        self._overlay.complete_round(("prep", recovery.instance, recovery.ballot))
        self._overlay.complete_round(("rpre", recovery.instance, recovery.ballot))
        self._overlay.complete_round(("racc", recovery.instance, recovery.ballot))

    def _clear_recovery_state(self, instance_id: InstanceId) -> None:
        """The instance got committed (here or elsewhere): stop recovering it."""
        if instance_id in self._first_blocked:
            del self._first_blocked[instance_id]
        if instance_id in self._blocked_timers:
            self._blocked_timers.pop(instance_id).cancel()
        if instance_id in self._recoveries:
            self._cancel_recovery_rounds(self._recoveries.pop(instance_id))

    # ---------------------------------------------------- recovery: acceptor side
    def _handle_prepare(self, msg: EPrepare) -> EPrepareReply:
        """Promise ``msg.ballot`` and report this replica's instance state."""
        instance = self.instances.get(msg.instance)
        if instance is None:
            # Promise must survive: create a placeholder so a late
            # default-ballot PreAccept from the original leader is rejected.
            instance = _Instance(
                instance=msg.instance, command=None, seq=0, deps=frozenset(),
                status=_UNKNOWN, ballot=msg.ballot,
                attr_ballot=initial_ballot(msg.instance),
            )
            self.instances[msg.instance] = instance
        elif msg.ballot < instance.ballot:
            self.count("prepares_rejected_ballot")
            return EPrepareReply(
                instance=msg.instance, voter=self.node_id, ok=False,
                ballot=instance.ballot, status=instance.status,
                seq=instance.seq, deps=instance.deps, command=None,
                attr_ballot=instance.attr_ballot, changed=instance.local_changed,
            )
        else:
            instance.ballot = msg.ballot
        self.count("prepares_handled")
        status = _UNKNOWN if instance.command is None else instance.status
        return EPrepareReply(
            instance=msg.instance, voter=self.node_id, ok=True,
            ballot=msg.ballot, status=status,
            seq=instance.seq, deps=instance.deps, command=instance.command,
            attr_ballot=instance.attr_ballot, changed=instance.local_changed,
        )

    def _on_prepare(self, src: int, msg: EPrepare) -> None:
        self.send(src, self._handle_prepare(msg))

    # ------------------------------------------------- recovery: coordinator side
    def _on_prepare_reply(self, src: int, msg: EPrepareReply) -> None:
        recovery = self._recoveries.get(msg.instance)
        if recovery is None or recovery.phase != "prepare":
            return
        if not msg.ok:
            if msg.ballot > recovery.ballot:
                self._note_preempted(recovery, msg.ballot)
            return
        if msg.ballot != recovery.ballot:
            return
        self._record_prepare_reply(recovery, msg)

    def _record_prepare_reply(self, recovery: _Recovery, msg: EPrepareReply) -> None:
        if msg.voter in recovery.replies:
            self.count("duplicate_prepare_replies")
            return
        recovery.replies[msg.voter] = msg
        # A commit is final the moment we learn of it -- no need to wait for
        # the rest of the quorum.
        if msg.status in (_COMMITTED, _EXECUTED) and msg.command is not None:
            self.count("recoveries_adopted_commit")
            self._finish_recovery(recovery, msg.command, msg.seq, msg.deps)
            return
        if len(recovery.replies) >= self.quorum.phase1_size:
            self._decide_recovery(recovery)

    def _decide_recovery(self, recovery: _Recovery) -> None:
        """The standard explicit-prepare decision table (Moraru et al. 4.7).

        Applied to a majority of prepare replies, most- to least-advanced
        evidence:

        1. someone saw a commit            -> adopt it (handled on arrival);
        2. someone saw an accept           -> finish phase 2 with the
           highest-ballot accepted attributes;
        3. enough identical *unchanged* default-ballot PreAccepts (at least
           floor((f+1)/2), excluding the original leader) -> the original
           fast path may have committed with exactly these attributes, so
           finish phase 2 with them;
        4. any surviving PreAccept at all  -> re-run PreAccept at the
           recovery ballot (slow path only), letting acceptors recompute
           conflicts so no dependency edge is lost;
        5. nobody has ever seen the command -> commit a no-op that carries
           the instance's known dependency edges (none, when nothing
           survives) so dependents order exactly as the checkers require.
        """
        replies = sorted(recovery.replies.values(), key=lambda r: r.voter)
        accepted = [r for r in replies if r.status == _ACCEPTED and r.command is not None]
        if accepted:
            best = max(accepted, key=lambda r: (r.attr_ballot, -r.voter))
            self.count("recoveries_from_accept")
            self._recovery_accept(recovery, best.command, best.seq, best.deps)
            return
        preaccepted = [r for r in replies if r.status == _PREACCEPTED and r.command is not None]
        origin = recovery.instance[0]
        default = initial_ballot(recovery.instance)
        groups: Dict[Tuple[int, FrozenSet[InstanceId]], List[EPrepareReply]] = {}
        for reply in preaccepted:
            if reply.voter == origin or reply.attr_ballot != default or reply.changed:
                continue
            groups.setdefault((reply.seq, reply.deps), []).append(reply)
        threshold = max((self.quorum.f + 1) // 2, 1)
        winner = None
        for attrs in sorted(groups, key=lambda a: (-len(groups[a]), a[0], sorted(a[1]))):
            if len(groups[attrs]) >= threshold:
                winner = groups[attrs][0]
                break
        if winner is not None and self._fast_commit_disproved(recovery.instance, winner):
            # A committed conflicting instance with no dependency edge in
            # either direction proves the fast path never fired (two fast
            # quorums of conflicting commands always share a non-leader
            # voter, which would have forced an edge one way or the other),
            # so adopting the winner's edge-missing attributes would be
            # unsafe -- fall through to the re-run row, which recomputes
            # conflicts and restores the edge.
            self.count("recoveries_fast_path_disproved")
            winner = None
        if winner is not None:
            # The fast path may have committed exactly these attributes at
            # the crashed leader; committing anything else could contradict
            # a replica that already received its commit broadcast.
            self.count("recoveries_from_default_preaccepts")
            self._recovery_accept(recovery, winner.command, winner.seq, winner.deps)
            return
        if preaccepted:
            base_seq = max(r.seq for r in preaccepted)
            base_deps = frozenset().union(*(r.deps for r in preaccepted))
            self.count("recoveries_repreaccepted")
            self._recovery_preaccept(recovery, preaccepted[0].command, base_seq, base_deps)
            return
        self.count("recoveries_noop")
        self._recovery_accept(recovery, NoOp(), 1, frozenset(), noop=True)

    def _fast_commit_disproved(self, instance_id: InstanceId, reply: EPrepareReply) -> bool:
        """True when local state proves the instance never fast-committed.

        The quorum-of-default-PreAccepts row must adopt the reported
        attributes *exactly* because the crashed leader may have
        fast-committed them.  But if this replica has a committed
        conflicting instance W on the same key with no edge between W and
        the recovered instance in either direction, a fast commit is
        impossible (optimized fast quorums of conflicting commands
        intersect in a non-leader replica, whose vote forces an edge), and
        adopting the edge-missing attributes would lose the conflict
        ordering.  Local knowledge only -- a disproof visible solely at
        other replicas is not consulted; that residual corner is the
        documented TryPreAccept gap.
        """
        keys = self._keys_of(reply.command)
        if not keys:
            return False

        def covered(deps: FrozenSet[InstanceId], target: InstanceId) -> bool:
            # Deps keep only the *latest* interfering instance per origin,
            # so an edge to (o, m) with m >= n transitively implies the
            # edge to (o, n): both interfere on this key, hence (o, m)'s
            # own deps chain down through every earlier same-key (o, i).
            # Membership alone misses that and manufactured false
            # disproofs of genuinely fast-committed instances (found by
            # fuzzing, seed 462).
            origin, number = target
            return any(o == origin and m >= number for o, m in deps)

        graph = self.graph
        # lint: ok(no-unordered-iteration) pure existence scan (returns True on any hit); order-insensitive
        for other_id, other in self.instances.items():
            if other_id == instance_id or other.status not in (_COMMITTED, _EXECUTED):
                continue
            if keys.isdisjoint(self._keys_of(other.command)):
                continue
            if not covered(reply.deps, other_id) and not covered(
                graph.deps_of(other_id), instance_id
            ):
                return True
        return False

    @staticmethod
    def _keys_of(command) -> FrozenSet[str]:
        """The key set a command interferes on (empty for NoOp/None)."""
        if type(command) is CommandBatch:
            return frozenset(command.keys())
        key = getattr(command, "key", None)
        return frozenset() if key is None else frozenset((key,))

    def _recovery_preaccept(self, recovery: _Recovery, command: Command,
                            seq: int, deps: FrozenSet[InstanceId]) -> None:
        """Row 4: re-run PreAccept at the recovery ballot (slow path only)."""
        recovery.phase = "preaccept"
        recovery.command = command
        recovery.seq = seq
        recovery.deps = deps
        recovery.preaccept_voters = set()
        self._overlay.complete_round(("prep", recovery.instance, recovery.ballot))
        preaccept = EPreAccept(
            instance=recovery.instance, command=command, seq=seq, deps=deps,
            ballot=recovery.ballot,
        )
        # Local state first: the coordinator is one of the quorum and its
        # conflict index must contribute (and promise the attrs).
        own = self._handle_preaccept(preaccept)
        if not own.ok:
            # Our own acceptor already promised a higher ballot: this round
            # is dead on arrival.  Counting ourselves anyway would be a
            # phantom vote (quorum math assumes the coordinator accepted);
            # record the preemption and let the retry timer re-run at a
            # higher ballot.
            self._note_preempted(recovery, own.ballot)
            return
        recovery.seq = max(recovery.seq, own.seq)
        recovery.deps = recovery.deps | own.deps
        self._overlay.wide_cast(
            preaccept,
            round_id=("rpre", recovery.instance, recovery.ballot),
            quorum_size=self.quorum.phase1_size,
        )

    def _on_recovery_preaccept_reply(self, recovery: _Recovery, msg: EPreAcceptReply) -> None:
        if not msg.ok:
            return
        if msg.voter == self.node_id or not self._register_vote(recovery.preaccept_voters, msg.voter):
            self.count("duplicate_preaccept_replies")
            return
        recovery.seq = max(recovery.seq, msg.seq)
        recovery.deps = recovery.deps | msg.deps
        # +1 accounts for the coordinator's own vote.  Never the fast path:
        # a recovered instance always finishes through an explicit Accept.
        if len(recovery.preaccept_voters) + 1 >= self.quorum.phase1_size:
            self._overlay.complete_round(("rpre", recovery.instance, recovery.ballot))
            self._recovery_accept(recovery, recovery.command, recovery.seq, recovery.deps)

    def _recovery_accept(self, recovery: _Recovery, command: Command, seq: int,
                         deps: FrozenSet[InstanceId], noop: bool = False) -> None:
        """Finish the instance through phase 2 at the recovery ballot."""
        self._overlay.complete_round(("prep", recovery.instance, recovery.ballot))
        self._overlay.complete_round(("rpre", recovery.instance, recovery.ballot))
        recovery.phase = "accept"
        recovery.command = command
        recovery.seq = seq
        recovery.deps = deps
        recovery.noop = noop
        recovery.accept_voters = set()
        accept = EAccept(
            instance=recovery.instance, command=command, seq=seq, deps=deps,
            ballot=recovery.ballot,
        )
        # Accept locally first (the coordinator votes for itself).  A nack
        # means our own acceptor promised a higher ballot since this
        # recovery started; the implicit self-vote in the quorum count
        # below would then be phantom, so abort and let the retry timer
        # re-run at a higher ballot.
        own = self._handle_accept(accept)
        if not own.ok:
            self._note_preempted(recovery, own.ballot)
            return
        self._overlay.wide_cast(
            accept,
            round_id=("racc", recovery.instance, recovery.ballot),
            quorum_size=self.quorum.phase2_size,
        )

    def _on_recovery_accept_reply(self, recovery: _Recovery, msg: EAcceptReply) -> None:
        if not msg.ok:
            return
        if msg.voter == self.node_id or not self._register_vote(recovery.accept_voters, msg.voter):
            self.count("duplicate_accept_replies")
            return
        if len(recovery.accept_voters) + 1 >= self.quorum.phase2_size:
            self._finish_recovery(recovery, recovery.command, recovery.seq, recovery.deps)

    def _finish_recovery(self, recovery: _Recovery, command: Command, seq: int,
                         deps: FrozenSet[InstanceId]) -> None:
        """Commit the recovered decision and broadcast it like any commit."""
        noop = recovery.noop
        instance = self.instances.get(recovery.instance)
        if instance is None:
            instance = _Instance(
                instance=recovery.instance, command=command, seq=seq, deps=deps,
                ballot=recovery.ballot, attr_ballot=recovery.ballot,
            )
            self.instances[recovery.instance] = instance
        instance.command = command
        # _commit_instance pops the recovery (via _clear_recovery_state),
        # cancels the fallback rounds, broadcasts the ECommit through the
        # overlay and unblocks execution of every dependent.
        self._commit_instance(instance, seq, deps)
        self.count("recoveries_completed")
        if noop:
            self.count("recovery_noop_commits")

    def _apply_command(self, command) -> CommandResult:
        """Apply ``command`` with at-most-once client-session filtering.

        The same client command can be committed in *two instances*: the
        client retries a timed-out request against a different replica,
        which becomes a second opportunistic leader for it.  Both instances
        commit and execute on every replica, but applying the command twice
        would clobber writes ordered between them.  Duplicate instances
        carry the same key, so they conflict and execute in the same
        relative order everywhere -- filtering here keeps all state machines
        identical, and the cached result lets the duplicate's leader still
        answer its client correctly.
        """
        if type(command) is CommandBatch:
            # Unpack in batch order on every replica, each sub-command
            # through its own key's session cache below, so dedup decisions
            # depend only on same-key conflict-ordered events exactly as for
            # unbatched commands.  The result tuple feeds the per-command
            # replies at the batch's leader.
            return tuple(self._apply_command(sub) for sub in command.commands)
        try:
            client_id = command.client_id
            request_id = command.request_id
        except AttributeError:
            return self.store.apply(command)
        if client_id is None or client_id < 0 or request_id <= 0:
            return self.store.apply(command)
        # Per-key cache: see __init__ for why eviction must be driven by
        # same-key events only under EPaxos' partial order.
        sessions = self._client_sessions.get(command.key)
        if sessions is None:
            sessions = self._client_sessions[command.key] = ClientSessionCache(
                window=self._session_window, max_clients=self.MAX_CLIENTS_PER_KEY
            )
        result, duplicate = sessions.apply_once(client_id, request_id, self.store.apply, command)
        if duplicate:
            self.count("duplicate_commands_skipped")
        return result

    def _execute_instance(self, instance_id: InstanceId) -> None:
        instance = self.instances.get(instance_id)
        if instance is None or instance.status == _EXECUTED:
            return
        result = self._apply_command(instance.command)
        self.ctx.charge_execution(
            len(instance.command) if type(instance.command) is CommandBatch else 1
        )
        instance.status = _EXECUTED
        self.graph.mark_executed(instance_id)
        self.executed_order.append(instance_id)
        self.count("instances_executed")
        clients = instance.clients
        if not clients:
            return  # not led here: nobody is waiting on this replica
        command = instance.command
        if type(command) is NoOp:
            # A recovery decided this instance with a dependency-preserving
            # no-op instead of what we proposed (e.g. after a partition).
            # Stay silent; every client retries.  Only a lost batch is
            # counted: it costs one retry per command inside.
            if len(clients) > 1:
                self.count("orphaned_batch_replies_suppressed")
        else:
            self._reply_to_clients(clients, command, result)

    # ------------------------------------------------------------------ crash / recover
    def on_crash(self) -> None:
        # Instances/log/store model stable storage and survive; the batch
        # buffer is leader-volatile state -- buffered commands were never
        # proposed, so they are simply lost and their clients retry.
        super().on_crash()
        if self._batcher is not None:
            self._batcher.reset()

    # ------------------------------------------------------------------ introspection
    def status(self) -> Dict[str, object]:
        return {
            "node": self.node_id,
            "overlay": self._overlay.name,
            "instances": len(self.instances),
            "committed": self.graph.committed_count,
            "executed": self.graph.executed_count,
            "pending_execution": len(self._pending_execution),
            "recoveries_in_flight": len(self._recoveries),
            "kv_size": len(self.store),
            "sessions": sum(len(cache) for cache in self._client_sessions.values()),
        }
