"""Tests for the hot-path fast paths introduced by the simulator overhaul.

Three families:

* The lazily-sorted :class:`~repro.sim.metrics.Histogram` must agree exactly
  with the old keep-sorted-on-insert (``insort``) implementation for every
  statistic, under arbitrary interleavings of observes and reads (a read
  sorts; later observes must re-dirty the order).
* :class:`~repro.net.sizes.SizeModel` reads each message's own
  ``payload_bytes`` (fixed at construction): per-instance sizes, header-only
  for metadata types and bare objects, nothing shared between models.  The
  per-type equivalence with a from-scratch walk is ``tests/test_wire_sizes.py``.
* The incremental Paxos commit-frontier scan
  (:meth:`~repro.statemachine.log.ReplicatedLog.commit_announced`) must
  behave exactly like a full window rescan -- late accepts into remembered
  gaps, fill commits and ballot changes must all be picked up -- and must
  stay incremental: across a recovery gap it probes each slot about once.
"""

from __future__ import annotations

import random
from bisect import insort

import pytest

from helpers import FakeContext, FullRescanFollower
from repro.net.message import Message
from repro.net.sizes import SizeModel
from repro.sim.metrics import Histogram


class _InsortReference:
    """The pre-overhaul Histogram algorithm, kept as the test oracle."""

    def __init__(self) -> None:
        self._values = []
        self._sum = 0.0

    def observe(self, value: float) -> None:
        insort(self._values, value)
        self._sum += value

    def percentile(self, p: float) -> float:
        import math

        if not self._values:
            return 0.0
        if len(self._values) == 1:
            return self._values[0]
        rank = (p / 100.0) * (len(self._values) - 1)
        low, high = math.floor(rank), math.ceil(rank)
        if low == high:
            return self._values[int(rank)]
        low_value, high_value = self._values[low], self._values[high]
        if low_value == high_value:
            return low_value
        fraction = rank - low
        interpolated = low_value * (1.0 - fraction) + high_value * fraction
        return min(max(interpolated, low_value), high_value)


class TestLazyHistogram:
    def test_empty_histogram_statistics(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.max == 0.0 and h.mean == 0.0
        assert h.percentile(99.0) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_insort_reference_on_random_orders(self, seed):
        rng = random.Random(seed)
        h = Histogram("h")
        ref = _InsortReference()
        for _ in range(rng.randint(1, 400)):
            value = rng.uniform(0.0, 10.0)
            h.observe(value)
            ref.observe(value)
        assert h.count == len(ref._values)
        assert h.mean == pytest.approx(ref._sum / len(ref._values))
        assert h.percentile(0.0) == ref._values[0]
        assert h.max == ref._values[-1]
        for p in (0.0, 10.0, 50.0, 90.0, 99.0, 100.0):
            assert h.percentile(p) == ref.percentile(p), f"p{p} diverged (seed={seed})"

    def test_observes_after_reads_redirty_the_order(self):
        # The failure mode of a lazy sort: read once (sorts), then append a
        # smaller value and read again -- a stale sorted-flag would return
        # the old minimum.
        h = Histogram("h")
        for value in (5.0, 3.0, 4.0):
            h.observe(value)
        assert h.percentile(0.0) == 3.0 and h.max == 5.0
        h.observe(1.0)
        assert h.percentile(0.0) == 1.0
        h.observe(9.0)
        assert h.max == 9.0
        assert h.percentile(50.0) == 4.0

    def test_interleaved_observe_read_property(self):
        rng = random.Random(99)
        h = Histogram("h")
        shadow = []
        for _ in range(500):
            if shadow and rng.random() < 0.3:
                ordered = sorted(shadow)
                assert h.percentile(0.0) == ordered[0]
                assert h.max == ordered[-1]
                assert h.percentile(50.0) == pytest.approx(
                    _percentile_oracle(ordered, 50.0)
                )
            else:
                value = rng.uniform(-5.0, 5.0)
                h.observe(value)
                shadow.append(value)

    def test_stats_reads_consistent(self):
        h = Histogram("h")
        for value in (2.0, 1.0, 3.0):
            h.observe(value)
        assert h.count == 3
        assert h.percentile(0.0) == 1.0 and h.max == 3.0
        assert h.percentile(50.0) == 2.0


def _percentile_oracle(ordered, p):
    import math

    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    if low == high:
        return ordered[int(rank)]
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


# --------------------------------------------------------------------- sizes
class _Sized(Message):
    """Message whose payload varies per instance."""

    __slots__ = ("payload_bytes",)

    def __init__(self, payload: int) -> None:
        self.payload_bytes = payload


class _MetadataOnly(Message):
    """Message that inherits the base zero payload."""

    __slots__ = ()


class TestSizeModel:
    def test_sizes_are_per_instance(self):
        model = SizeModel(header_bytes=64)
        assert model.size_of(_Sized(100)) == 164
        assert model.size_of(_Sized(0)) == 64
        assert model.size_of(_Sized(7)) == 71

    def test_metadata_only_and_bare_objects_are_header_only(self):
        model = SizeModel(header_bytes=48)
        assert model.size_of(_MetadataOnly()) == 48
        assert model.size_of(object()) == 48
        assert model.size_of("text") == 48

    def test_negative_payload_clamped(self):
        model = SizeModel(header_bytes=64)
        assert model.size_of(_Sized(-100)) == 64

    def test_wire_type_without_its_size_is_an_error_not_header_only(self):
        class Unfilled(Message):
            __slots__ = ("payload_bytes",)

        class Broken(Message):
            __slots__ = ()

            @property
            def payload_bytes(self) -> int:
                return self.missing

        model = SizeModel(header_bytes=64)
        with pytest.raises(AttributeError):
            model.size_of(Unfilled())
        with pytest.raises(AttributeError):
            model.size_of(Broken())

    def test_independent_models_share_nothing(self):
        small = SizeModel(header_bytes=1)
        big = SizeModel(header_bytes=1000)
        probe = _Sized(5)
        assert small.size_of(probe) == 6
        assert big.size_of(probe) == 1005


# ------------------------------------------------------ commit-frontier scan
class TestIncrementalCommitFrontier:
    """The gap-set frontier scan must match a naive full rescan exactly."""

    def _replica(self, num_nodes=3):
        from repro.cluster.builder import build_cluster

        cluster = build_cluster("paxos", num_nodes=num_nodes, num_clients=1, seed=1)
        return cluster.nodes[1].replica  # a follower

    def test_late_accept_into_gap_commits_on_next_frontier(self):
        from repro.protocol.ballot import Ballot
        from repro.statemachine.command import Command, OpType

        replica = self._replica()
        ballot = Ballot(1, 0)
        replica.promised = ballot
        first = Command(op=OpType.PUT, key="a", value="1", client_id=7, request_id=1)
        third = Command(op=OpType.PUT, key="a", value="3", client_id=7, request_id=3)
        replica.log.accept(1, ballot, first)
        replica.log.accept(3, ballot, third)
        # Slot 2 missing: the frontier stalls and slots 2..3 become gaps.
        replica._apply_commit_frontier(3, ballot)
        assert replica.commit_upto == 1
        assert 2 in replica.log.gap_slots
        # The late accept for slot 2 arrives; the *next* frontier scan must
        # re-examine the remembered gap and commit straight through.
        second = Command(op=OpType.PUT, key="a", value="2", client_id=7, request_id=2)
        replica.log.accept(2, ballot, second)
        replica._apply_commit_frontier(3, ballot)
        assert replica.commit_upto == 3
        assert not replica.log.gap_slots

    def test_ballot_change_rejudges_remembered_gaps(self):
        from repro.protocol.ballot import Ballot
        from repro.statemachine.command import Command, OpType

        replica = self._replica()
        old_ballot = Ballot(1, 0)
        new_ballot = Ballot(2, 2)
        replica.promised = new_ballot
        command = Command(op=OpType.PUT, key="a", value="1", client_id=7, request_id=1)
        replica.log.accept(1, new_ballot, command)
        # Announced under the old ballot: entry mismatches, slot 1 is a gap.
        replica._apply_commit_frontier(1, old_ballot)
        assert replica.commit_upto == 0
        assert 1 in replica.log.gap_slots
        # Same entry, new announcing ballot: the gap must be re-judged and
        # committed even though the log entry itself never changed.
        replica._apply_commit_frontier(1, new_ballot)
        assert replica.commit_upto == 1

    def test_gap_above_announced_frontier_not_committed_early(self):
        from repro.protocol.ballot import Ballot
        from repro.statemachine.command import Command, OpType

        replica = self._replica()
        ballot = Ballot(1, 0)
        replica.promised = ballot
        # Slot 1 missing entirely; slots 2..3 present.  A high announcement
        # records gaps, then a lower (reordered) announcement arrives: the
        # scan must not touch slots above it.
        for slot in (2, 3):
            cmd = Command(op=OpType.PUT, key="a", value=str(slot), client_id=7, request_id=slot)
            replica.log.accept(slot, ballot, cmd)
        replica._apply_commit_frontier(3, ballot)
        assert replica.commit_upto == 0
        committed_high = replica.log.is_committed(3)
        # Full-rescan semantics: slots <= the announced frontier with a
        # matching ballot commit (2 and 3 did); slot 1 stays the gap.
        assert committed_high
        assert 1 in replica.log.gap_slots

    @pytest.mark.parametrize("seed", range(30))
    def test_random_steps_match_a_full_rescan(self, seed):
        from repro.paxos.replica import MultiPaxosReplica
        from repro.protocol.ballot import Ballot
        from repro.protocol.config import ProtocolConfig
        from repro.protocol.messages import FillReply
        from repro.statemachine.command import Command, OpType

        rng = random.Random(seed)
        ctx = FakeContext(node_id=1, all_nodes=[0, 1, 2])
        replica = MultiPaxosReplica(config=ProtocolConfig(initial_leader=0))
        replica.bind(ctx)
        replica.leader_id = 0  # fill requests are only scheduled with a known leader
        reference = FullRescanFollower()
        ballots = (Ballot(1, 0), Ballot(2, 2))
        # One command per slot, so a late accept or a fill never contradicts
        # a committed slot.
        commands = {
            slot: Command(op=OpType.PUT, key="k", value=str(slot), client_id=7, request_id=slot)
            for slot in range(1, 41)
        }
        for step in range(150):
            kind = rng.random()
            ballot = rng.choice(ballots)
            if kind < 0.45:
                # Fresh accepts land ahead of the frontier; late ones into the
                # window the announcements have already covered.
                high = max(reference.commit_upto, 1) + (8 if rng.random() < 0.6 else 1)
                slot = rng.randint(1, min(high, 40))
                replica.log.accept(slot, ballot, commands[slot])
                reference.accept(slot, ballot)
                missing = expected_missing = None
            elif kind < 0.6:
                slot = rng.randint(1, 40)
                replica._on_fill_reply(0, FillReply(entries=((slot, ballot, commands[slot]),)))
                reference.fill(slot, ballot)
                missing = expected_missing = None
            else:
                # Announcements jump around, lower ones included.
                upto = rng.randint(1, 42)
                replica._fill_pending = False
                fills_before = sum(1 for t in ctx.timers if t.callback == replica._request_fill)
                replica._apply_commit_frontier(upto, ballot)
                fills_after = sum(1 for t in ctx.timers if t.callback == replica._request_fill)
                missing = fills_after > fills_before
                expected_missing = reference.announce(upto, ballot)
            where = f"seed {seed} step {step}"
            assert missing == expected_missing, where
            assert replica.commit_upto == reference.commit_upto, where
            assert {
                slot: replica.log.get(slot).committed for slot in reference.entries
            } == {slot: entry[1] for slot, entry in reference.entries.items()}, where
            assert len(replica.log) == len(reference.entries), where

    @pytest.mark.parametrize("seed", range(30))
    def test_log_alone_matches_a_full_rescan(self, seed):
        from repro.protocol.ballot import Ballot
        from repro.statemachine.command import Command, OpType
        from repro.statemachine.log import ReplicatedLog

        rng = random.Random(seed)
        log = ReplicatedLog()
        frontier = 0
        reference = FullRescanFollower()
        ballots = (Ballot(1, 0), Ballot(2, 2), Ballot(3, 1))
        commands = {
            slot: Command(op=OpType.PUT, key="k", value=str(slot), client_id=7, request_id=slot)
            for slot in range(1, 41)
        }
        for step in range(150):
            kind = rng.random()
            ballot = rng.choice(ballots)
            missing = expected_missing = None
            if kind < 0.45:
                high = max(reference.commit_upto, 1) + (8 if rng.random() < 0.6 else 1)
                slot = rng.randint(1, min(high, 40))
                log.accept(slot, ballot, commands[slot])
                reference.accept(slot, ballot)
            elif kind < 0.6:
                slot = rng.randint(1, 40)
                log.commit(slot, ballot, commands[slot])
                frontier = log.committed_through(frontier)
                reference.fill(slot, ballot)
            else:
                upto = rng.randint(1, 42)
                missing = False
                if upto > frontier:
                    frontier = log.commit_announced(upto, ballot, frontier)
                    missing = frontier < upto
                expected_missing = reference.announce(upto, ballot)
            where = f"seed {seed} step {step}"
            assert missing == expected_missing, where
            assert frontier == reference.commit_upto, where
            assert {
                slot: log.get(slot).committed for slot in reference.entries
            } == {slot: entry[1] for slot, entry in reference.entries.items()}, where
            assert log.dirty_slots <= log.gap_slots, where

    def test_recovery_gap_is_scanned_once_not_per_announcement(self):
        """A follower back from a crash holds no entry for the first ``gap``
        slots; each of ``rounds`` P2as then announces a frontier one slot
        higher.  A rescan of the whole window per announcement probes the
        log about ``gap * rounds`` times; the incremental scan probes each
        gap slot once plus a few probes per round."""
        from repro.paxos.replica import MultiPaxosReplica
        from repro.protocol.ballot import Ballot
        from repro.protocol.config import ProtocolConfig
        from repro.protocol.messages import P2a
        from repro.statemachine.command import Command, OpType

        class CountingDict(dict):
            probes = 0

            def __contains__(self, key):
                self.probes += 1
                return dict.__contains__(self, key)

            def __getitem__(self, key):
                self.probes += 1
                return dict.__getitem__(self, key)

            def get(self, key, default=None):
                self.probes += 1
                return dict.get(self, key, default)

        gap, rounds = 5000, 200
        replica = MultiPaxosReplica(config=ProtocolConfig(initial_leader=0))
        replica.bind(FakeContext(node_id=1, all_nodes=[0, 1, 2]))
        log = replica.log
        log.by_slot = CountingDict()
        log.get = log.by_slot.get
        ballot = Ballot(1, 0)
        for slot in range(gap + 1, gap + rounds + 1):
            command = Command(op=OpType.PUT, key="k", value=str(slot), client_id=7, request_id=slot)
            vote = replica._process_p2a(0, P2a(ballot=ballot, slot=slot, command=command, commit_upto=slot - 1))
            assert vote.ok
        assert replica.commit_upto == 0  # slot 1 never arrived
        assert len(log.gap_slots) == gap
        assert log.by_slot.probes < 2 * (gap + rounds) + 4 * rounds, log.by_slot.probes
