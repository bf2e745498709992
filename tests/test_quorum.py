"""Unit tests for quorum systems and vote trackers."""

from __future__ import annotations

import pytest

from repro.errors import QuorumError
from repro.protocol.ballot import Ballot
from repro.quorum.systems import FastQuorum, MajorityQuorum
from repro.quorum.tracker import BallotVoteTracker, VoteTracker


class TestMajorityQuorum:
    @pytest.mark.parametrize("n,expected", [(1, 1), (3, 2), (5, 3), (9, 5), (25, 13)])
    def test_majority_sizes(self, n, expected):
        quorum = MajorityQuorum(n)
        assert quorum.phase1_size == expected
        assert quorum.phase2_size == expected

    def test_max_failures_matches_f(self):
        assert MajorityQuorum(5).max_failures == 2
        assert MajorityQuorum(25).max_failures == 12

    def test_satisfaction(self):
        quorum = MajorityQuorum(5)
        assert quorum.phase2_satisfied(3)
        assert not quorum.phase2_satisfied(2)

    def test_invalid_size_rejected(self):
        with pytest.raises(QuorumError):
            MajorityQuorum(0)


class TestFastQuorum:
    def test_fast_path_size_formula(self):
        # n = 2f+1, fast quorum = f + floor((f+1)/2)
        assert FastQuorum(5).fast_path_size == 3
        assert FastQuorum(25).fast_path_size == 18
        assert FastQuorum(9).f == 4

    def test_slow_path_is_majority(self):
        assert FastQuorum(25).phase2_size == 13

    def test_fast_path_satisfied(self):
        quorum = FastQuorum(5)
        assert quorum.fast_path_satisfied(3)
        assert not quorum.fast_path_satisfied(2)

    def test_even_clusters_floor_at_majority(self):
        # Fuzz-found (seed 42): the paper's formula assumes n = 2f+1; on
        # even n it fell below a majority (n=4 gave 2), letting two command
        # leaders fast-commit conflicting commands with disjoint quorums.
        assert FastQuorum(4).fast_path_size == 3
        assert FastQuorum(6).fast_path_size == 4

    def test_fast_quorums_pairwise_intersect(self):
        # Dependency safety: any two fast quorums must share a replica.
        for n in range(2, 26):
            quorum = FastQuorum(n)
            assert 2 * quorum.fast_path_size > n, f"n={n}"

    def test_odd_clusters_keep_paper_sizes(self):
        # The majority floor must not move any n = 2f+1 quorum.
        for n in range(3, 26, 2):
            f = (n - 1) // 2
            assert FastQuorum(n).fast_path_size == f + (f + 1) // 2, f"n={n}"


class TestVoteTracker:
    def test_quorum_reached_on_required_acks(self):
        tracker = VoteTracker(required=3)
        assert not tracker.ack(1)
        assert not tracker.ack(2)
        assert tracker.ack(3)
        assert tracker.satisfied

    def test_duplicate_acks_do_not_double_count(self):
        tracker = VoteTracker(required=2)
        assert not tracker.ack(1)
        assert not tracker.ack(1)
        assert not tracker.satisfied
        assert tracker.ack(2) and tracker.satisfied

    def test_zero_required_rejected(self):
        with pytest.raises(QuorumError):
            VoteTracker(required=0)


class TestBallotVoteTracker:
    def test_merges_highest_ballot_accepted_value(self):
        tracker = BallotVoteTracker(required=2)
        low, high = Ballot(1, 0), Ballot(2, 1)
        tracker.ack(1, {5: (low, "old")})
        tracker.ack(2, {5: (high, "new"), 7: (low, "seven")})
        assert tracker.satisfied
        assert tracker.commands_to_repropose() == {5: "new", 7: "seven"}

    def test_no_accepted_entries(self):
        tracker = BallotVoteTracker(required=1)
        tracker.ack(1)
        assert tracker.commands_to_repropose() == {}


class TestBallot:
    def test_ordering_is_lexicographic(self):
        assert Ballot(1, 2) < Ballot(2, 0)
        assert Ballot(2, 1) > Ballot(2, 0)

    def test_next_for_increments_round(self):
        ballot = Ballot(3, 1).next_for(7)
        assert ballot == Ballot(4, 7)
        assert ballot.leader == 7

    def test_zero_is_smallest(self):
        assert Ballot.zero() < Ballot(1, 0)
        assert Ballot.zero().is_zero()

    def test_str_format(self):
        assert str(Ballot(4, 2)) == "4.2"
