"""Relay-tree fan-out: the paper's PigPaxos overlay, generalised.

``RelayFanout`` partitions the host's peers into relay groups and, per
wide-cast, picks one random member of each group as that round's relay
(:mod:`repro.overlay.groups`).  The wrapped message travels root → relays →
group members; responses aggregate back up the tree under a tight timeout,
so the fan-out root sends and receives one message per *group* instead of
one per *node* -- the communication-cost reduction at the heart of
conf_sigmod_CharapkoAD21.

Multi-Paxos over this overlay is PigPaxos; EPaxos routes its
PreAccept/Accept rounds (and commit notifications) through the very same
trees, turning the paper's Multi-Paxos result into a protocol-agnostic
subsystem.  Robustness properties:

* a relay that times out (or hits its early-flush threshold) sends a
  partial aggregate, and *still forwards* late child responses towards the
  root afterwards instead of dropping votes the root may need;
* relays rotate every round, so a crashed relay only costs the rounds in
  flight; :meth:`reshuffle` additionally re-deals group membership
  (Section 4.1) -- within zones on hierarchical topologies, so the rebuilt
  multi-level tree still follows the region/zone boundaries;
* with ``commit_fallback_timeout`` set, fire-and-forget fan-outs demand
  acks hop by hop: the root covers its first-hop relays and (recursively)
  every interior relay covers its own sub-relays, re-sending a silent
  relay's subtree directly, with per-depth ``relay.depth.<d>.*`` counters;
* aggregate accounting counts distinct children only, so a child that
  flushes twice cannot mark a session complete while another child is
  silent.

Example::

    from repro.overlay import RelayFanout

    overlay = RelayFanout(num_groups=3, relay_timeout=0.05)
    # installed via EPaxosReplica(overlay=overlay); normally built from an
    # OverlayConfig by build_overlay (the "pigpaxos" preset defaults to it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional

from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.overlay.base import FanoutOverlay
from repro.overlay.groups import (
    HierarchicalGroupPlan,
    RelayGroupPlan,
    region_groups,
    round_robin_groups,
)
from repro.overlay.messages import RelayAggregate, RelayRequest, RelaySubtree

#: Each tree level waits this fraction of its parent's aggregation timeout
#: (floored at 1 ms), so a sub-relay flushes before the relay above it.
TIMEOUT_DECAY = 0.5


class _AggregationSession:
    """State a relay keeps while gathering responses for one round.

    One is opened per relay per round, so it is a plain slotted object with
    no ``__init__`` that the relay fills in directly: opening one costs no
    call.  ``seen`` maps each child heard from to None (a dict, because an
    empty one is a literal), ``heard`` counts those distinct children, and
    ``responses`` is the tuple to send up: the relay's own vote, then its
    children's in arrival order.  A session is in the relay's table until
    it is flushed.
    """

    __slots__ = ("agg_id", "parent", "expected", "heard", "seen", "responses", "threshold",
                 "timer")


@dataclass(slots=True)
class _CommitRound:
    """Durability tracking for one fire-and-forget fan-out hop.

    ``subtrees`` maps each next-hop relay to the subtree it must deliver
    to; a relay that has not acked by the fallback deadline is presumed
    crashed and its subtree is re-sent directly (DirectFanout-style).  The
    fan-out root opens one of these at ``depth`` 0; with recursive fallback
    every interior relay opens its own round (depth 1, 2, ...) covering its
    sub-relays, so a deep sub-relay crash heals at the lowest live ancestor
    instead of surfacing as a lost commit.
    """

    message: Message
    subtrees: Dict[int, object] = field(default_factory=dict)
    acked: set = field(default_factory=set)
    timer: Optional[object] = None
    depth: int = 0


class RelayFanout(FanoutOverlay):
    """Fan out through per-round relay trees and aggregate replies back up."""

    name = "relay"

    #: How many flushed sessions to remember for late-response forwarding.
    _FLUSHED_SESSION_MEMORY = 256

    def __init__(
        self,
        num_groups: int = 3,
        use_region_groups: bool = False,
        region_of: Optional[Dict[int, str]] = None,
        zone_of: Optional[Dict[int, str]] = None,
        relay_timeout: float = 0.05,
        response_threshold: Optional[float] = None,
        levels: int = 1,
        fixed_relays: bool = False,
        commit_fallback_timeout: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.num_groups = num_groups
        self.use_region_groups = use_region_groups
        self.region_of = dict(region_of or {})
        self.zone_of = dict(zone_of or {})
        if use_region_groups and not self.region_of:
            # Refused at build time: silently falling back to round-robin
            # groups (the historical behaviour) turned a mis-wired WAN
            # deployment into a quietly slower one instead of an error.
            raise ConfigurationError(
                "use_region_groups=True but no region map is available; "
                "build the cluster on a WAN/hierarchical topology (or pass "
                "region_of) or disable region-aligned grouping"
            )
        self.relay_timeout = relay_timeout
        self.response_threshold = response_threshold
        self.levels = levels
        self.fixed_relays = fixed_relays
        # Commit durability (a relay crashing mid-commit-round used to lose
        # the commit for its whole group).  When set, fire-and-forget
        # fan-outs demand a lightweight ack from each next-hop relay -- the
        # root's first-hop relays and every interior relay's sub-relays --
        # and any subtree whose relay stays silent past the deadline is
        # re-sent directly, node by node.  None (default) keeps the
        # historical ack-free behaviour and recorded fingerprints.
        self.commit_fallback_timeout = commit_fallback_timeout

        self._plan: Optional[RelayGroupPlan] = None
        self._sessions: Dict[int, _AggregationSession] = {}
        self._agg_counter = 0
        # Parents of recently flushed sessions, so late child responses can
        # still be forwarded towards the fan-out root instead of being lost.
        # Every flush adds a new key and only eviction removes one, so
        # ``_flushed_count`` tracks its size without a len() per flush.
        self._flushed_parents: Dict[int, int] = {}
        self._flushed_count = 0
        # Root-side commit-durability rounds awaiting relay acks.
        self._pending_commits: Dict[int, _CommitRound] = {}
        # The host's counters for the two per-round events, bound the first
        # time each is counted (so neither appears before it happens).
        self._fanouts_counter = None
        self._rounds_counter = None

    # ------------------------------------------------------------------ groups
    def plan(self) -> RelayGroupPlan:
        """The current partition of the host's peers into relay groups."""
        if self._plan is None:
            followers = sorted(self.host.peers)
            if self.use_region_groups:
                if self.zone_of:
                    # Hierarchical topology: one group per region with zone
                    # sub-partitions, so multi-level trees follow region
                    # relay -> zone relays -> leaves instead of arbitrary
                    # splits.  At levels <= 1 this is exactly region_groups.
                    self._plan = HierarchicalGroupPlan.from_hierarchy(
                        followers, self.region_of, self.zone_of
                    )
                    return self._plan
                groups = region_groups(followers, self.region_of)
            else:
                groups = round_robin_groups(followers, self.num_groups)
            self._plan = RelayGroupPlan(groups=groups)
        return self._plan

    def set_plan(self, groups: List[List[int]]) -> None:
        """Install an explicit group layout (used by tests and ablations)."""
        self._plan = RelayGroupPlan(groups=[list(group) for group in groups])

    def reshuffle(self) -> RelayGroupPlan:
        """Dynamically reconfigure relay groups (Section 4.1)."""
        self._plan = self.plan().reshuffle(self.host.ctx.rng)
        self.host.count("group_reshuffles")
        return self._plan

    # ------------------------------------------------------------------ sending
    def wide_cast(
        self,
        message: Message,
        *,
        expects_response: bool = True,
        round_id: Optional[Hashable] = None,
        quorum_size: Optional[int] = None,
    ) -> None:
        """Send ``message`` down one freshly built relay tree per group."""
        trees = self.plan().build_trees(
            rng=self.host.ctx.rng, levels=self.levels, fixed_relays=self.fixed_relays
        )
        self._agg_counter += 1
        agg_id = self.host.node_id * 1_000_000_000 + self._agg_counter
        want_ack = not expects_response and self.commit_fallback_timeout is not None
        for tree in trees:
            request = RelayRequest(
                inner=message,
                children=tree.children,
                agg_id=agg_id,
                timeout=self.relay_timeout,
                expects_response=expects_response,
                ack=want_ack,
            )
            self.host.send(tree.node_id, request)
        if want_ack and trees:
            self._open_commit_round(
                agg_id, message, {tree.node_id: tree for tree in trees}, depth=0
            )
        counter = self._fanouts_counter
        if counter is None:
            counter = self._fanouts_counter = self.host.counter("relay_fanouts")
        counter.value += 1.0

    def _open_commit_round(
        self,
        agg_id: int,
        message: Message,
        subtrees: Dict[int, RelaySubtree],
        depth: int,
    ) -> None:
        """Arm durability tracking for one fan-out hop at ``depth``."""
        commit_round = _CommitRound(message=message, subtrees=subtrees, depth=depth)
        commit_round.timer = self.host.ctx.schedule(
            self.commit_fallback_timeout, self._commit_fallback, agg_id
        )
        self._pending_commits[agg_id] = commit_round
        self.host.count(f"relay.depth.{depth}.ack_rounds")

    # ------------------------------------------------------------------ receiving
    def handlers(self) -> Dict[type, Callable[[int, Message], None]]:
        return {RelayRequest: self._on_relay_request, RelayAggregate: self._on_aggregate}

    # ------------------------------------------------------------------ relay / follower role
    def _on_relay_request(self, src: int, msg: RelayRequest) -> None:
        host = self.host
        if msg.expects_response and (
            msg.agg_id in self._sessions or msg.agg_id in self._flushed_parents
        ):
            # Duplicate delivery of a request we are already serving (or just
            # served): opening a fresh session would discard the votes the
            # live session already collected, and the superseded session's
            # timer would flush the replacement early.  Leaf followers have
            # no session to protect; their repeated replies are deduplicated
            # upstream (children_seen / per-voter accounting).
            host.count("duplicate_relay_requests_ignored")
            return
        inner = msg.inner
        agg_id = msg.agg_id
        own_response = host.relayed[type(inner)](src, inner)
        child_timeout = None
        if msg.children:
            # Every child gets the same (decayed) aggregation timeout, one level down.
            child_timeout = msg.timeout * TIMEOUT_DECAY
            if child_timeout < 0.001:
                child_timeout = 0.001
        child_depth = msg.depth + 1

        if not msg.expects_response:
            # Pure fan-out traffic (heartbeats, commits): forward and stop.
            # With commit fallback on, this relay also demands acks from
            # its own sub-relays (children that have children) and re-sends
            # a silent sub-relay's subtree directly -- the same protocol the
            # root runs, one level down.  Leaves never ack: losing a leaf
            # loses one node's copy, not a whole subtree.
            sub_relays: Dict[int, RelaySubtree] = {}
            want_child_acks = (
                msg.ack
                and self.commit_fallback_timeout is not None
                and agg_id not in self._pending_commits
            )
            leaf_request = None
            for child in msg.children:
                if not child.children:
                    # Every leaf is sent the one request built for them all.
                    if leaf_request is None:
                        leaf_request = RelayRequest(
                            inner=inner,
                            children=(),
                            agg_id=agg_id,
                            timeout=child_timeout,
                            expects_response=False,
                            depth=child_depth,
                        )
                    host.send(child.node_id, leaf_request)
                    continue
                if want_child_acks:
                    sub_relays[child.node_id] = child
                host.send(
                    child.node_id,
                    RelayRequest(
                        inner=inner,
                        children=child.children,
                        agg_id=agg_id,
                        timeout=child_timeout,
                        expects_response=False,
                        ack=want_child_acks,
                        depth=child_depth,
                    ),
                )
            if sub_relays:
                self._open_commit_round(agg_id, inner, sub_relays, depth=msg.depth)
            if msg.ack:
                # Commit-durability leg: tell the parent this subtree's relay
                # is alive and has forwarded the round.  Duplicate requests
                # re-ack; the parent's acked-set makes that idempotent.
                host.send(
                    src,
                    RelayAggregate(agg_id=agg_id, responses=(), origin=host.node_id),
                )
            return

        if not msg.children:
            # Leaf follower: answer the relay immediately.
            responses = (own_response,) if own_response is not None else ()
            host.send(
                src, RelayAggregate(agg_id=agg_id, responses=responses, origin=host.node_id)
            )
            return

        # Relay role: open an aggregation session, forward to the subtree.
        session = _AggregationSession()
        session.agg_id = agg_id
        session.parent = src
        session.heard = 0
        session.seen = {}
        session.responses = () if own_response is None else (own_response,)
        self._sessions[agg_id] = session
        session.timer = host.ctx.schedule(msg.timeout, self._session_timeout, agg_id)
        expected = 0
        leaf_request = None
        for child in msg.children:
            expected += 1
            if not child.children:
                # Every leaf is sent the one request built for them all.
                if leaf_request is None:
                    leaf_request = RelayRequest(
                        inner=inner,
                        children=(),
                        agg_id=agg_id,
                        timeout=child_timeout,
                        depth=child_depth,
                    )
                host.send(child.node_id, leaf_request)
                continue
            host.send(
                child.node_id,
                RelayRequest(
                    inner=inner,
                    children=child.children,
                    agg_id=agg_id,
                    timeout=child_timeout,
                    depth=child_depth,
                ),
            )
        session.expected = expected
        threshold = self.response_threshold
        session.threshold = None if threshold is None else max(1, math.ceil(threshold * expected))
        counter = self._rounds_counter
        if counter is None:
            counter = self._rounds_counter = host.counter("relay_rounds")
        counter.value += 1.0

    def _on_aggregate(self, src: int, msg: RelayAggregate) -> None:
        agg_id = msg.agg_id
        if agg_id in self._pending_commits:
            # Durability ack for a fire-and-forget round this node fanned
            # out: the relay is alive.  Once every relay acked, the round
            # is durable and the fallback is disarmed.
            commit_round = self._pending_commits[agg_id]
            if msg.origin not in commit_round.acked:
                commit_round.acked.add(msg.origin)
                self.host.count(f"relay.depth.{commit_round.depth}.acks")
            if len(commit_round.acked) >= len(commit_round.subtrees):
                if commit_round.timer is not None:
                    commit_round.timer.cancel()
                del self._pending_commits[agg_id]
            return
        sessions = self._sessions
        if agg_id in sessions:
            session = sessions[agg_id]
            # Count distinct children only: a child relay that flushed early
            # may send a second aggregate when its own stragglers arrive, and
            # double-counting it would flush this session "complete" while a
            # different child never reported.
            seen = session.seen
            origin = msg.origin
            if origin not in seen:
                seen[origin] = None
                session.heard += 1
            session.responses += msg.responses
            heard = session.heard
            done = heard >= session.expected
            early = session.threshold is not None and heard >= session.threshold
            if done or early:
                self._flush_session(session, complete=done)
            return

        if agg_id in self._flushed_parents:
            # Late child responses for a session this relay already flushed
            # (timeout or early threshold).  The fan-out root may still need
            # these votes to reach quorum, so forward them up the tree rather
            # than swallowing them; duplicates are idempotent at the root.
            if msg.responses:
                self.host.count("late_responses_forwarded")
                self.host.send(
                    self._flushed_parents[agg_id],
                    RelayAggregate(
                        agg_id=agg_id,
                        responses=msg.responses,
                        origin=self.host.node_id,
                        complete=False,
                    ),
                )
            else:
                self.host.count("late_aggregates_dropped")
            return

        responses = msg.responses
        if responses:
            # No session was ever open for this id: we are the top of the
            # tree (the round's fan-out root).  The votes answer one relayed
            # message, so they share a type: hand the whole tuple to the
            # host's vote table in one call; stale votes are ignored there.
            self.host.votes[type(responses[0])](src, responses)
        else:
            self.host.count("late_aggregates_dropped")

    def _commit_fallback(self, agg_id: int) -> None:
        """A relay never acked a commit round: re-send its subtree directly.

        The crashed relay's whole group would otherwise silently miss the
        commit and stall its dependency graphs until client retries papered
        over the hole.  Re-broadcast is DirectFanout-style -- one plain copy
        of the inner message per subtree node -- and harmless to nodes that
        did receive the relayed copy (commits are idempotent).  Fires at the
        root (depth 0) for silent first-hop relays and, with recursive
        fallback, at every interior relay for its own silent sub-relays.
        """
        commit_round = self._pending_commits.pop(agg_id, None)
        if commit_round is None:
            return
        resent = 0
        for relay_id, subtree in sorted(commit_round.subtrees.items()):
            if relay_id in commit_round.acked:
                continue
            for node_id in subtree.all_nodes():
                self.host.send(node_id, commit_round.message)
                resent += 1
        if resent:
            self.host.count("commit_fallbacks")
            self.host.count("commit_fallback_resends", resent)
            self.host.count(f"relay.depth.{commit_round.depth}.fallbacks")
            self.host.count(f"relay.depth.{commit_round.depth}.fallback_resends", resent)

    def _session_timeout(self, agg_id: int) -> None:
        session = self._sessions.get(agg_id)
        if session is None:
            return
        self.host.count("relay_timeouts")
        self._flush_session(session, complete=False)

    def _flush_session(self, session: _AggregationSession, complete: bool) -> None:
        agg_id = session.agg_id
        if session.timer is not None:
            session.timer.cancel()
        del self._sessions[agg_id]
        flushed = self._flushed_parents
        flushed[agg_id] = session.parent
        self._flushed_count += 1
        if self._flushed_count > self._FLUSHED_SESSION_MEMORY:
            del flushed[next(iter(flushed))]
            self._flushed_count -= 1
        aggregate = RelayAggregate(
            agg_id=agg_id,
            responses=session.responses,
            origin=self.host.node_id,
            complete=complete,
        )
        self.host.send(session.parent, aggregate)

    # ------------------------------------------------------------------ lifecycle
    def on_crash(self) -> None:
        # The machine's crash already cancelled every timer these held.
        self._sessions.clear()
        self._flushed_parents.clear()
        self._flushed_count = 0
        self._pending_commits.clear()

    # ------------------------------------------------------------------ introspection
    @property
    def open_sessions(self) -> int:
        return len(self._sessions)
