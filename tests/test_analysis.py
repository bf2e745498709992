"""Tests for the analytical model (Tables 1-2, Section 6) and the WAN model."""

from __future__ import annotations

import pytest

from repro.analysis.model import (
    follower_load_limit,
    leader_overhead,
    message_load_table,
    messages_at_follower,
    messages_at_leader,
    paxos_messages_at_follower,
    paxos_messages_at_leader,
)
from repro.analysis.wan import wan_messages_per_write, wan_traffic_table
from repro.errors import ConfigurationError


class TestMessageLoadFormulas:
    @pytest.mark.parametrize("r,expected", [(1, 4), (2, 6), (3, 8), (4, 10), (5, 12), (6, 14), (24, 50)])
    def test_leader_messages_formula1(self, r, expected):
        assert messages_at_leader(r) == expected

    @pytest.mark.parametrize(
        "n,r,expected",
        [
            (25, 2, 3.83), (25, 3, 3.75), (25, 4, 3.67), (25, 5, 3.58), (25, 6, 3.50), (25, 24, 2.0),
            (9, 2, 3.5), (9, 3, 3.25), (9, 4, 3.0), (9, 8, 2.0),
        ],
    )
    def test_follower_messages_match_paper_tables(self, n, r, expected):
        assert messages_at_follower(n, r) == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize(
        "n,r,expected_pct",
        [(25, 2, 56), (25, 3, 113), (25, 4, 172), (25, 5, 234), (25, 6, 300), (25, 24, 2400),
         (9, 2, 71), (9, 3, 146), (9, 4, 233), (9, 8, 800)],
    )
    def test_leader_overhead_matches_paper_tables(self, n, r, expected_pct):
        assert leader_overhead(n, r) * 100 == pytest.approx(expected_pct, abs=2.0)

    def test_paxos_degenerate_case(self):
        assert paxos_messages_at_leader(25) == 50
        assert paxos_messages_at_follower(25) == 2.0

    def test_table1_reproduction(self):
        rows = message_load_table(25)
        assert [row.relay_groups for row in rows] == [2, 3, 4, 5, 6, 24]
        assert rows[-1].is_paxos
        assert rows[0].messages_at_leader == 6

    def test_table2_reproduction(self):
        rows = message_load_table(9, relay_group_counts=[2, 3, 4])
        assert [row.relay_groups for row in rows] == [2, 3, 4, 8]
        assert rows[0].messages_at_follower == pytest.approx(3.5)

    def test_follower_load_asymptote_is_four(self):
        # Section 6.3: with r=1 and N -> infinity, follower load approaches 4,
        # which equals the minimum leader load -- the leader stays the bottleneck.
        assert follower_load_limit(1) == 4.0
        assert messages_at_follower(10_001, 1) == pytest.approx(4.0, abs=0.001)
        assert messages_at_leader(1) == 4.0

    def test_leader_load_grows_with_groups_follower_load_capped(self):
        leader_loads = [messages_at_leader(r) for r in range(2, 10)]
        follower_loads = [messages_at_follower(25, r) for r in range(2, 10)]
        assert leader_loads == sorted(leader_loads)
        assert all(load <= 4.0 for load in follower_loads)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            messages_at_leader(0)
        with pytest.raises(ConfigurationError):
            messages_at_follower(5, 5)
        with pytest.raises(ConfigurationError):
            messages_at_follower(1, 1)


class TestWANModel:
    def test_paper_example_three_regions_of_three(self):
        regions = {"virginia": 3, "california": 3, "oregon": 3}
        assert wan_messages_per_write(regions, "virginia", "pigpaxos") == 2
        assert wan_messages_per_write(regions, "virginia", "paxos") == 6

    def test_traffic_table_ratio(self):
        rows = wan_traffic_table({"a": 3, "b": 3, "c": 3}, leader_region="a")
        by_protocol = {row.protocol: row for row in rows}
        assert by_protocol["paxos"].ratio_vs_pigpaxos == pytest.approx(3.0)

    def test_unknown_leader_region_rejected(self):
        with pytest.raises(ConfigurationError):
            wan_messages_per_write({"a": 3}, "z", "paxos")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            wan_messages_per_write({"a": 3, "b": 1}, "a", "raft")
