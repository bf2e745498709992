"""Unit tests for the fan-out overlay layer (repro.overlay).

Covers the three strategies through their protocol hosts: direct broadcast
equivalence, EPaxos rounds travelling through relay trees (including relay
crashes and late replies), deep-tree resilience (recursive commit fallback
at interior relays, zone-preserving mid-round reshuffles), thrifty subset
sends with the full-broadcast fallback, configuration plumbing through
ProtocolConfig/build_cluster, and the scenario-level mutation test:
disabling the thrifty fallback must be caught by the scenario checkers
(the ``progress`` liveness floor).
"""

from __future__ import annotations

import pytest

from helpers import FakeContext, library_run
from repro.cluster.builder import build_cluster
from repro.epaxos.messages import (
    EAccept,
    EAcceptReply,
    ECommit,
    EPreAccept,
    EPreAcceptReply,
    EPrepare,
    EPrepareReply,
)
from repro.epaxos.replica import EPaxosReplica
from repro.errors import ConfigurationError
from repro.overlay import (
    DirectFanout,
    HierarchicalGroupPlan,
    OverlayConfig,
    RelayAggregate,
    RelayFanout,
    RelayRequest,
    RelaySubtree,
    ThriftyFanout,
    build_overlay,
)
from repro.protocol.config import ProtocolConfig
from repro.protocol.messages import ClientRequest
from repro.scenarios import get_scenario, run_scenario
from repro.sim.metrics import bottleneck_node, node_traffic, sent_by_kind
from repro.statemachine.command import Command, OpType


def epaxos_replica(overlay=None, node_id=0, cluster=5):
    ctx = FakeContext(node_id=node_id, all_nodes=list(range(cluster)))
    replica = EPaxosReplica(overlay=overlay)
    replica.bind(ctx)
    replica.start()
    return replica, ctx


def request(key="k", client_id=1000, request_id=1) -> ClientRequest:
    return ClientRequest(
        command=Command(op=OpType.PUT, key=key, payload_size=8, client_id=client_id, request_id=request_id)
    )


class TestOverlayConfig:
    def test_coerce_accepts_kind_string_and_mapping(self):
        assert OverlayConfig.coerce("relay").kind == "relay"
        cfg = OverlayConfig.coerce({"kind": "thrifty", "thrifty_fallback_timeout": 0.2})
        assert cfg.kind == "thrifty" and cfg.thrifty_fallback_timeout == 0.2
        assert OverlayConfig.coerce(None) is None
        same = OverlayConfig(kind="relay")
        assert OverlayConfig.coerce(same) is same

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            OverlayConfig(kind="telepathy")

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            OverlayConfig(num_groups=0)
        with pytest.raises(ConfigurationError):
            OverlayConfig(relay_timeout=0.0)
        with pytest.raises(ConfigurationError):
            OverlayConfig(thrifty_fallback_timeout=-1.0)

    def test_factory_builds_each_kind(self):
        assert isinstance(build_overlay(None), DirectFanout)
        assert isinstance(build_overlay(OverlayConfig(kind="relay")), RelayFanout)
        assert isinstance(build_overlay(OverlayConfig(kind="thrifty")), ThriftyFanout)

    def test_protocol_config_coerces_overlay_mapping(self):
        config = ProtocolConfig(overlay={"kind": "relay", "num_groups": 2})
        assert isinstance(config.overlay, OverlayConfig)
        assert config.overlay.num_groups == 2

    def test_overlays_cannot_be_shared_between_replicas(self):
        overlay = DirectFanout()
        EPaxosReplica(overlay=overlay)
        with pytest.raises(RuntimeError):
            EPaxosReplica(overlay=overlay)


class TestDirectFanout:
    def test_wide_cast_reaches_every_peer(self):
        replica, ctx = epaxos_replica()
        replica.on_message(1000, request())
        preaccepts = ctx.sent_of_type(EPreAccept)
        assert sorted(dst for dst, _ in preaccepts) == [1, 2, 3, 4]


class TestEPaxosRelayFanout:
    def test_preaccept_travels_through_relay_trees(self):
        replica, ctx = epaxos_replica(overlay=RelayFanout(num_groups=2))
        replica.on_message(1000, request())
        requests = ctx.sent_of_type(RelayRequest)
        assert len(requests) == 2  # one relay per group
        covered = set()
        for dst, message in requests:
            assert isinstance(message.inner, EPreAccept)
            covered.add(dst)
            covered.update(node for child in message.children for node in child.all_nodes())
        assert covered == {1, 2, 3, 4}

    def test_relay_aggregates_subtree_votes(self):
        # Node 1 acts as relay for a PreAccept round led by node 0.
        relay, ctx = epaxos_replica(overlay=RelayFanout(), node_id=1)
        inner = EPreAccept(instance=(0, 1), command=request().command, seq=1, deps=frozenset())
        from repro.overlay.messages import RelaySubtree

        relay.on_message(0, RelayRequest(
            inner=inner, children=(RelaySubtree(2), RelaySubtree(3)), agg_id=7, timeout=0.05,
        ))
        # The relay forwarded to both children and opened a session holding
        # its own vote.
        forwarded = ctx.sent_of_type(RelayRequest)
        assert sorted(dst for dst, _ in forwarded) == [2, 3]
        assert relay.overlay.open_sessions == 1

        # Children's votes arrive; the relay flushes one aggregate with all
        # three votes (its own + both children's) to the fan-out root.
        for child in (2, 3):
            vote = EPreAcceptReply(instance=(0, 1), voter=child, ok=True,
                                   seq=1, deps=frozenset(), changed=False)
            relay.on_message(child, RelayAggregate(agg_id=7, responses=(vote,), origin=child))
        aggregates = ctx.sent_of_type(RelayAggregate)
        assert len(aggregates) == 1
        dst, aggregate = aggregates[0]
        assert dst == 0 and aggregate.complete
        assert len(aggregate.responses) == 3
        assert {r.voter for r in aggregate.responses} == {1, 2, 3}

    def test_relayed_table_returns_the_votes_and_applies_commits(self):
        relay, ctx = epaxos_replica(overlay=RelayFanout(), node_id=1)
        assert set(relay.relayed) == {EPreAccept, EAccept, EPrepare, ECommit}
        command = request().command
        vote = relay.relayed[EPreAccept](
            0, EPreAccept(instance=(0, 1), command=command, seq=1, deps=frozenset())
        )
        assert isinstance(vote, EPreAcceptReply) and vote.ok and vote.voter == 1
        accepted = relay.relayed[EAccept](
            0, EAccept(instance=(0, 1), command=command, seq=1, deps=frozenset())
        )
        assert isinstance(accepted, EAcceptReply) and accepted.ok
        promise = relay.relayed[EPrepare](2, EPrepare(instance=(0, 1), ballot=(1, 2)))
        assert isinstance(promise, EPrepareReply) and promise.ok
        commit = ECommit(instance=(0, 1), command=command, seq=1, deps=frozenset())
        assert relay.relayed[ECommit](0, commit) is None
        assert relay.instances[(0, 1)].status in ("committed", "executed")
        # A type the table does not list goes through ordinary dispatch.
        assert relay.relayed[ClientRequest](1000, request(request_id=2)) is None
        led = [msg.inner for _, msg in ctx.sent_of_type(RelayRequest)]
        assert led and all(type(inner) is EPreAccept for inner in led)  # led as usual

    def test_relay_timeout_flushes_partial_then_forwards_late_votes(self):
        # A child crashes (never replies): the relay flushes a partial
        # aggregate at its timeout, and still forwards the straggler's vote
        # towards the root when it finally arrives.
        relay, ctx = epaxos_replica(overlay=RelayFanout(), node_id=1)
        inner = EPreAccept(instance=(0, 1), command=request().command, seq=1, deps=frozenset())
        from repro.overlay.messages import RelaySubtree

        relay.on_message(0, RelayRequest(
            inner=inner, children=(RelaySubtree(2), RelaySubtree(3)), agg_id=9, timeout=0.05,
        ))
        timers = [t for t in ctx.pending_timers() if t.callback == relay.overlay._session_timeout]
        assert len(timers) == 1
        timers[0].fire()

        aggregates = ctx.sent_of_type(RelayAggregate)
        assert len(aggregates) == 1
        assert not aggregates[0][1].complete  # partial flush
        assert {r.voter for r in aggregates[0][1].responses} == {1}
        assert ctx.metrics.counter("epaxos.relay_timeouts").value == 1

        # The late child vote is forwarded, not swallowed.
        late = EPreAcceptReply(instance=(0, 1), voter=3, ok=True,
                               seq=1, deps=frozenset(), changed=False)
        relay.on_message(3, RelayAggregate(agg_id=9, responses=(late,), origin=3))
        aggregates = ctx.sent_of_type(RelayAggregate)
        assert len(aggregates) == 2
        assert aggregates[1][0] == 0
        assert {r.voter for r in aggregates[1][1].responses} == {3}
        assert ctx.metrics.counter("epaxos.late_responses_forwarded").value == 1

    def test_root_unwraps_aggregated_votes_and_commits_fast_path(self):
        replica, ctx = epaxos_replica(overlay=RelayFanout(num_groups=2))
        replica.on_message(1000, request())
        (instance_id, instance), = replica.instances.items()
        votes = tuple(
            EPreAcceptReply(instance=instance_id, voter=voter, ok=True,
                            seq=instance.seq, deps=instance.deps, changed=False)
            for voter in (1, 2)
        )
        agg_id = ctx.sent_of_type(RelayRequest)[0][1].agg_id
        replica.on_message(1, RelayAggregate(agg_id=agg_id, responses=votes, origin=1))
        assert instance.status in ("committed", "executed")
        assert ctx.metrics.counter("epaxos.fast_path_commits").value == 1
        # Commit notifications fan out through relay trees too.
        commit_wrappers = [
            (dst, m) for dst, m in ctx.sent_of_type(RelayRequest) if isinstance(m.inner, ECommit)
        ]
        assert commit_wrappers and all(not m.expects_response for _, m in commit_wrappers)

    def test_duplicate_relay_request_does_not_clobber_session(self):
        # The network may re-deliver a RelayRequest (duplicate storm).  The
        # duplicate must not replace the in-flight session -- that would
        # discard already-collected child votes and leave the old session's
        # timer armed to flush the replacement prematurely.
        relay, ctx = epaxos_replica(overlay=RelayFanout(), node_id=1)
        inner = EPreAccept(instance=(0, 1), command=request().command, seq=1, deps=frozenset())
        from repro.overlay.messages import RelaySubtree

        wrapped = RelayRequest(inner=inner, children=(RelaySubtree(2), RelaySubtree(3)),
                               agg_id=13, timeout=0.05)
        relay.on_message(0, wrapped)
        vote = EPreAcceptReply(instance=(0, 1), voter=2, ok=True,
                               seq=1, deps=frozenset(), changed=False)
        relay.on_message(2, RelayAggregate(agg_id=13, responses=(vote,), origin=2))

        relay.on_message(0, wrapped)  # duplicate delivery
        assert ctx.metrics.counter("epaxos.duplicate_relay_requests_ignored").value == 1
        assert relay.overlay.open_sessions == 1
        # The collected child vote survived: the second child's reply now
        # completes the round with all three votes.
        relay.on_message(3, RelayAggregate(agg_id=13, responses=(
            EPreAcceptReply(instance=(0, 1), voter=3, ok=True,
                            seq=1, deps=frozenset(), changed=False),), origin=3))
        aggregates = ctx.sent_of_type(RelayAggregate)
        assert len(aggregates) == 1
        assert aggregates[0][1].complete
        assert {r.voter for r in aggregates[0][1].responses} == {1, 2, 3}

    @pytest.mark.parametrize("expects_response", [True, False], ids=["vote", "fire-and-forget"])
    def test_leaves_share_one_request_and_sub_relays_get_their_own(self, expects_response):
        # Node 2 is a sub-relay covering {2, 3}; nodes 4 and 5 are leaves.
        relay, ctx = epaxos_replica(overlay=RelayFanout(), node_id=1, cluster=6)
        inner = EPreAccept(instance=(0, 1), command=request().command, seq=1, deps=frozenset())
        sub_relay = RelaySubtree(2, children=(RelaySubtree(3),))
        relay.on_message(0, RelayRequest(
            inner=inner, children=(sub_relay, RelaySubtree(4), RelaySubtree(5)), agg_id=17,
            timeout=0.05, expects_response=expects_response,
        ))
        sent = ctx.sent_of_type(RelayRequest)
        assert [dst for dst, _ in sent] == [2, 4, 5]
        forwarded = dict(sent)
        leaf_request = forwarded[4]
        assert forwarded[5] is leaf_request
        assert leaf_request.children == () and not leaf_request.ack
        assert forwarded[2] is not leaf_request
        assert forwarded[2].children is sub_relay.children
        for message in forwarded.values():
            assert message.inner is inner and message.agg_id == 17
            assert message.timeout == 0.025 and message.depth == 2
            assert message.expects_response == expects_response
        # The shared object prices exactly like a request built per leaf.
        assert leaf_request.payload_bytes == inner.payload_bytes

    def test_duplicate_request_to_a_leaf_is_answered_again(self):
        # A leaf keeps no session, so a re-delivered request (the same
        # shared object) is answered again; the relay dedups by origin.
        leaf, ctx = epaxos_replica(overlay=RelayFanout(), node_id=4)
        inner = EPreAccept(instance=(0, 1), command=request().command, seq=1, deps=frozenset())
        shared = RelayRequest(inner=inner, children=(), agg_id=19, timeout=0.025, depth=2)
        leaf.on_message(1, shared)
        leaf.on_message(1, shared)
        replies = ctx.sent_of_type(RelayAggregate)
        assert [dst for dst, _ in replies] == [1, 1]
        for _, reply in replies:
            assert reply.agg_id == 19 and reply.origin == 4
            assert [vote.voter for vote in reply.responses] == [4]
        assert ctx.metrics.counter("epaxos.duplicate_relay_requests_ignored").value == 0

    def test_crash_clears_relay_sessions(self):
        relay, ctx = epaxos_replica(overlay=RelayFanout(), node_id=1)
        inner = EPreAccept(instance=(0, 1), command=request().command, seq=1, deps=frozenset())
        from repro.overlay.messages import RelaySubtree

        relay.on_message(0, RelayRequest(inner=inner, children=(RelaySubtree(2),), agg_id=11, timeout=0.05))
        assert relay.overlay.open_sessions == 1
        relay.on_crash()
        assert relay.overlay.open_sessions == 0

    def test_reshuffle_redeals_groups(self):
        replica, ctx = epaxos_replica(overlay=RelayFanout(num_groups=2))
        before = [list(g) for g in replica.overlay.plan().groups]
        for _ in range(10):
            replica.overlay.reshuffle()
            after = [list(g) for g in replica.overlay.plan().groups]
            if after != before:
                break
        else:
            pytest.fail("reshuffle never changed the group layout")
        assert ctx.metrics.counter("epaxos.group_reshuffles").value >= 1


def commit_notification() -> ECommit:
    return ECommit(instance=(0, 1), command=request().command, seq=1, deps=frozenset())


class TestDeepRelayResilience:
    """Depth > 1 behaviour: recursive commit fallback and zone-aware plans.

    An interior relay (depth 1+) that forwards a fire-and-forget fan-out
    runs the same ack/deadline/resend-subtree protocol towards its own
    sub-relays that the root runs towards it, so a deep sub-relay crash
    heals at the lowest live ancestor.  These tests drive one interior
    relay directly through FakeContext and pin the per-depth counters.
    """

    @staticmethod
    def interior_relay(**overlay_kwargs):
        overlay = RelayFanout(commit_fallback_timeout=0.25, **overlay_kwargs)
        return epaxos_replica(overlay=overlay, node_id=1, cluster=9)

    @staticmethod
    def deep_request(ack=True, depth=1, agg_id=7, leaves=(5,)):
        # Node 2 is a sub-relay covering {2, 3, 4}; node 5 is a plain leaf.
        return RelayRequest(
            inner=commit_notification(),
            children=(
                RelaySubtree(2, children=(RelaySubtree(3), RelaySubtree(4))),
                *(RelaySubtree(leaf) for leaf in leaves),
            ),
            agg_id=agg_id,
            timeout=0.05,
            expects_response=False,
            ack=ack,
            depth=depth,
        )

    def test_interior_relay_acks_parent_and_covers_sub_relays(self):
        relay, ctx = self.interior_relay()
        relay.on_message(0, self.deep_request())

        # The sub-relay is forwarded with an ack demand, the leaf without;
        # both see the depth incremented for the next level's counters.
        forwarded = {dst: m for dst, m in ctx.sent_of_type(RelayRequest)}
        assert set(forwarded) == {2, 5}
        assert forwarded[2].ack and forwarded[2].depth == 2
        assert not forwarded[5].ack and forwarded[5].depth == 2
        # The relay itself acked its parent immediately (liveness signal).
        acks = ctx.sent_of_type(RelayAggregate)
        assert acks == [(0, acks[0][1])] and acks[0][1].origin == 1
        # And armed a depth-1 commit round over the one sub-relay.
        timers = [t for t in ctx.pending_timers()
                  if t.callback == relay.overlay._commit_fallback]
        assert len(timers) == 1 and timers[0].delay == 0.25
        assert ctx.metrics.counter("epaxos.relay.depth.1.ack_rounds").value == 1

    def test_shared_leaf_request_demands_no_ack(self):
        # With commit fallback on, only the sub-relay owes an ack: the
        # leaves' one shared request carries ack=False.
        relay, ctx = self.interior_relay()
        relay.on_message(0, self.deep_request(leaves=(5, 6)))
        forwarded = dict(ctx.sent_of_type(RelayRequest))
        assert set(forwarded) == {2, 5, 6}
        assert forwarded[5] is forwarded[6]
        assert not forwarded[5].ack and forwarded[5].children == ()
        assert forwarded[2].ack and forwarded[2] is not forwarded[5]

    def test_sub_relay_ack_disarms_the_fallback(self):
        relay, ctx = self.interior_relay()
        relay.on_message(0, self.deep_request())
        relay.on_message(2, RelayAggregate(agg_id=7, responses=(), origin=2))
        timers = [t for t in ctx.timers
                  if t.callback == relay.overlay._commit_fallback]
        assert timers[0].cancelled
        assert ctx.metrics.counter("epaxos.relay.depth.1.acks").value == 1
        assert ctx.metrics.counter("epaxos.commit_fallbacks").value == 0

    def test_silent_sub_relay_subtree_is_resent_directly(self):
        relay, ctx = self.interior_relay()
        relay.on_message(0, self.deep_request())
        ctx.clear_sent()

        timers = [t for t in ctx.pending_timers()
                  if t.callback == relay.overlay._commit_fallback]
        timers[0].fire()
        # The whole silent subtree {2, 3, 4} gets a direct copy; the leaf 5
        # owed no ack and is not re-sent.
        resent = ctx.sent_of_type(ECommit)
        assert sorted(dst for dst, _ in resent) == [2, 3, 4]
        assert ctx.metrics.counter("epaxos.relay.depth.1.fallbacks").value == 1
        assert ctx.metrics.counter("epaxos.relay.depth.1.fallback_resends").value == 3
        assert ctx.metrics.counter("epaxos.commit_fallbacks").value == 1

    def test_duplicate_commit_request_reacks_without_new_round(self):
        # Re-delivery must re-ack (the parent may have missed the first ack)
        # but never open a second commit round for the same fan-out.
        relay, ctx = self.interior_relay()
        relay.on_message(0, self.deep_request())
        relay.on_message(0, self.deep_request())
        acks = [m for dst, m in ctx.sent_of_type(RelayAggregate) if dst == 0]
        assert len(acks) == 2
        assert ctx.metrics.counter("epaxos.relay.depth.1.ack_rounds").value == 1

    def test_region_groups_without_region_map_rejected(self):
        # Satellite regression: requesting region-aligned groups on a
        # topology with no region map must fail loudly at build time, not
        # silently degrade to round-robin groups.
        with pytest.raises(ConfigurationError, match="region map"):
            RelayFanout(use_region_groups=True)
        with pytest.raises(ConfigurationError, match="region map"):
            build_cluster(protocol="epaxos", num_nodes=5, num_clients=1,
                          protocol_config={"overlay": {"kind": "relay", "use_region_groups": True}})

    def test_mid_round_reshuffle_keeps_deep_session_alive(self):
        # A reshuffle between a depth-2 round's fan-out and its responses
        # rebuilds the whole multi-level plan but must not strand the
        # in-flight aggregation session: the old round still completes
        # against the tree it was sent down.
        region_of = {n: ("virginia", "california", "oregon")[n % 3] for n in range(9)}
        zone_of = {n: f"{region_of[n]}-z{(n // 3) % 2}" for n in range(9)}
        relay, ctx = epaxos_replica(
            overlay=RelayFanout(use_region_groups=True, region_of=region_of,
                                zone_of=zone_of, levels=2),
            node_id=1, cluster=9,
        )
        inner = EPreAccept(instance=(0, 1), command=request().command, seq=1,
                           deps=frozenset())
        relay.on_message(0, RelayRequest(
            inner=inner,
            children=(RelaySubtree(2, children=(RelaySubtree(3),)), RelaySubtree(5)),
            agg_id=21, timeout=0.05, depth=1,
        ))
        assert relay.overlay.open_sessions == 1

        before = relay.overlay.plan()
        relay.overlay.reshuffle()
        after = relay.overlay.plan()
        # The rebuilt plan is still hierarchical and zone-preserving...
        assert isinstance(before, HierarchicalGroupPlan)
        assert isinstance(after, HierarchicalGroupPlan)
        for old, new in zip(before.zones, after.zones):
            assert [sorted(z) for z in old] == [sorted(z) for z in new]
        # ...and the old round is neither dropped nor double-opened.
        assert relay.overlay.open_sessions == 1

        for child, voters in ((2, (2, 3)), (5, (5,))):
            votes = tuple(
                EPreAcceptReply(instance=(0, 1), voter=v, ok=True, seq=1,
                                deps=frozenset(), changed=False)
                for v in voters
            )
            relay.on_message(child, RelayAggregate(agg_id=21, responses=votes,
                                                   origin=child))
        aggregates = ctx.sent_of_type(RelayAggregate)
        assert len(aggregates) == 1
        dst, aggregate = aggregates[0]
        assert dst == 0 and aggregate.complete
        assert {r.voter for r in aggregate.responses} == {1, 2, 3, 5}


class TestThriftyFanout:
    def test_voting_round_targets_quorum_subset(self):
        replica, ctx = epaxos_replica(overlay=ThriftyFanout())
        replica.on_message(1000, request())
        preaccepts = ctx.sent_of_type(EPreAccept)
        # fast quorum for n=5 is 3 (leader included): 2 targets, not 4.
        assert len(preaccepts) == 2
        assert replica.overlay.pending_rounds == 1

    def test_fallback_rebroadcasts_to_every_peer(self):
        replica, ctx = epaxos_replica(overlay=ThriftyFanout(fallback_timeout=0.08))
        replica.on_message(1000, request())
        first_wave = ctx.sent_of_type(EPreAccept)
        timers = [t for t in ctx.pending_timers() if t.callback == replica.overlay._fallback]
        assert len(timers) == 1 and timers[0].delay == 0.08
        timers[0].fire()
        resent = ctx.sent_of_type(EPreAccept)[len(first_wave):]
        assert sorted(dst for dst, _ in resent) == [1, 2, 3, 4]  # full broadcast
        assert ctx.metrics.counter("epaxos.thrifty_fallbacks").value == 1
        assert replica.overlay.pending_rounds == 0

    def test_quorum_completion_cancels_fallback(self):
        replica, ctx = epaxos_replica(overlay=ThriftyFanout())
        replica.on_message(1000, request())
        (instance_id, instance), = replica.instances.items()
        for voter in (1, 2):
            replica.on_message(voter, EPreAcceptReply(
                instance=instance_id, voter=voter, ok=True,
                seq=instance.seq, deps=instance.deps, changed=False,
            ))
        assert instance.status in ("committed", "executed")
        assert replica.overlay.pending_rounds == 0
        timers = [t for t in ctx.pending_timers() if t.callback == replica.overlay._fallback]
        assert timers == []

    def test_commits_are_never_thinned(self):
        replica, ctx = epaxos_replica(overlay=ThriftyFanout())
        replica.on_message(1000, request())
        (instance_id, instance), = replica.instances.items()
        for voter in (1, 2):
            replica.on_message(voter, EPreAcceptReply(
                instance=instance_id, voter=voter, ok=True,
                seq=instance.seq, deps=instance.deps, changed=False,
            ))
        commits = ctx.sent_of_type(ECommit)
        assert sorted(dst for dst, _ in commits) == [1, 2, 3, 4]


class TestBuilderWiring:
    def test_epaxos_overlay_reaches_every_replica(self):
        cluster = build_cluster(protocol="epaxos", num_nodes=3, num_clients=1,
                                protocol_config={"overlay": {"kind": "relay", "num_groups": 2}})
        overlays = [node.replica.overlay for node in cluster.nodes.values()]
        assert all(isinstance(o, RelayFanout) for o in overlays)
        assert len({id(o) for o in overlays}) == 3  # one instance per replica

    def test_epaxos_overlay_via_protocol_config(self):
        config = ProtocolConfig(overlay={"kind": "thrifty"})
        cluster = build_cluster(protocol="epaxos", num_nodes=3, num_clients=1,
                                protocol_config=config)
        assert all(isinstance(n.replica.overlay, ThriftyFanout) for n in cluster.nodes.values())


class TestTrafficAccounting:
    def test_per_node_and_per_kind_counters(self):
        cluster = build_cluster(protocol="epaxos", num_nodes=3, num_clients=2, seed=3)
        cluster.run(0.3)
        counters = cluster.sim.metrics.counters()
        traffic = node_traffic(counters)
        assert set(traffic) == {0, 1, 2}
        for stats in traffic.values():
            assert stats["messages_total"] == stats["messages_in"] + stats["messages_out"]
            assert stats["bytes_total"] > 0
        node, hot = bottleneck_node(counters)
        assert node in traffic
        assert hot["messages_total"] == max(t["messages_total"] for t in traffic.values())
        by_kind = sent_by_kind(counters)
        assert "EPreAccept" in by_kind
        assert by_kind["EPreAccept"]["count"] > 0
        assert by_kind["EPreAccept"]["bytes"] > 0

    def test_empty_counters_have_no_bottleneck(self):
        assert bottleneck_node({}) == (None, {})


class TestScenarioIntegration:
    @pytest.mark.parametrize("name", [
        "epaxos-relay-wan-9",
        "epaxos-relay-reshuffle-storm",
        "epaxos-thrifty-crash",
        "epaxos-thrifty-severed-links",
    ])
    def test_overlay_scenarios_pass_all_checkers(self, name):
        run = library_run(name)
        assert run.ok, run.violations
        assert run.completed_requests > 0

    def test_overlay_scenarios_are_deterministic(self):
        fresh = run_scenario(get_scenario("epaxos-relay-reshuffle-storm"))
        assert fresh.fingerprint() == library_run("epaxos-relay-reshuffle-storm").fingerprint

    def test_thrifty_fallback_mutation_is_caught(self, monkeypatch):
        """Drop the fallback re-send: the progress checker must fire.

        A thrifty round that sampled an unreachable peer can only recover
        through the fallback broadcast (the client's own retry eventually
        papers over it, but far too slowly).  With the fallback disabled the
        severed-links scenario falls well below its liveness floor.
        """
        monkeypatch.setattr(ThriftyFanout, "_fallback", lambda self, round_id: None)
        result = run_scenario(get_scenario("epaxos-thrifty-severed-links"))
        assert not result.ok
        assert any(v.checker == "progress" for v in result.violations)
        # Safety must still hold: only the liveness floor may fire.
        assert all(v.checker == "progress" for v in result.violations)
