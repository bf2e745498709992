"""Unit tests for relay-group partitioning and relay-tree construction."""

from __future__ import annotations

import random

import pytest

from helpers import per_round_trees, tree_shape
from repro.errors import ConfigurationError
from repro.overlay.groups import (
    HierarchicalGroupPlan,
    RelayGroupPlan,
    contiguous_groups,
    region_groups,
    round_robin_groups,
)
from repro.protocol.resolver import resolve_config


def pig_config(**overrides):
    """The pigpaxos preset resolved over flat config keys."""
    return resolve_config("pigpaxos", overrides)


class TestPartitioners:
    def test_contiguous_groups_cover_and_balance(self):
        groups = contiguous_groups(list(range(1, 25)), 3)
        assert sorted(n for g in groups for n in g) == list(range(1, 25))
        assert [len(g) for g in groups] == [8, 8, 8]

    def test_contiguous_uneven_split(self):
        groups = contiguous_groups(list(range(10)), 3)
        assert sorted(len(g) for g in groups) == [3, 3, 4]

    def test_round_robin_interleaves(self):
        groups = round_robin_groups([1, 2, 3, 4, 5, 6], 2)
        assert groups == [[1, 3, 5], [2, 4, 6]]

    def test_more_groups_than_members_collapses(self):
        groups = round_robin_groups([1, 2], 5)
        assert len(groups) == 2

    def test_region_groups_follow_regions(self):
        region_of = {1: "east", 2: "east", 3: "west", 4: "west", 5: "central"}
        groups = region_groups([1, 2, 3, 4, 5], region_of)
        assert [1, 2] in groups and [3, 4] in groups and [5] in groups

    def test_region_groups_collect_unassigned_nodes(self):
        groups = region_groups([1, 2, 3], {1: "east"})
        assert [1] in groups and sorted([2, 3]) in groups

    def test_invalid_group_count_rejected(self):
        with pytest.raises(ConfigurationError):
            contiguous_groups([1, 2, 3], 0)


class TestRelayGroupPlan:
    def test_plan_rejects_overlapping_groups(self):
        with pytest.raises(ConfigurationError):
            RelayGroupPlan(groups=[[1, 2], [2, 3]])

    def test_plan_rejects_empty_group(self):
        with pytest.raises(ConfigurationError):
            RelayGroupPlan(groups=[[1], []])

    def test_group_of_lookup(self):
        plan = RelayGroupPlan(groups=[[1, 2], [3, 4]])
        assert plan.group_of(3) == 1
        assert plan.group_of(99) is None

    def test_reshuffle_preserves_members_and_sizes(self):
        plan = RelayGroupPlan(groups=[[1, 2, 3], [4, 5], [6]])
        shuffled = plan.reshuffle(random.Random(3))
        assert sorted(shuffled.members) == sorted(plan.members)
        assert sorted(len(g) for g in shuffled.groups) == sorted(len(g) for g in plan.groups)

    def test_build_trees_one_per_group_covering_members(self):
        plan = RelayGroupPlan(groups=[[1, 2, 3, 4], [5, 6, 7, 8]])
        trees = plan.build_trees(rng=random.Random(1))
        assert len(trees) == 2
        covered = sorted(n for tree in trees for n in tree.all_nodes())
        assert covered == list(range(1, 9))
        for tree in trees:
            assert tree.depth() == 2  # relay + leaves

    def test_relay_rotation_uses_rng(self):
        plan = RelayGroupPlan(groups=[[1, 2, 3, 4, 5, 6, 7, 8]])
        rng = random.Random(0)
        relays = {plan.build_trees(rng=rng)[0].node_id for _ in range(50)}
        assert len(relays) > 1  # random rotation picks different relays over rounds

    def test_fixed_relays_pin_first_member(self):
        plan = RelayGroupPlan(groups=[[3, 1, 2], [6, 4, 5]])
        trees = plan.build_trees(rng=random.Random(0), fixed_relays=True)
        assert [tree.node_id for tree in trees] == [3, 6]

    def test_multi_level_tree_nests(self):
        plan = RelayGroupPlan(groups=[list(range(1, 14))])
        tree = plan.build_trees(rng=random.Random(2), levels=2)[0]
        assert tree.depth() == 3
        assert sorted(tree.all_nodes()) == list(range(1, 14))

    def test_single_member_group_has_no_children(self):
        plan = RelayGroupPlan(groups=[[9]])
        tree = plan.build_trees(rng=random.Random(0))[0]
        assert tree.node_id == 9
        assert tree.children == ()


def _random_plan(rng):
    """A plain plan over 1-30 members, or a region/zone plan over 1-40."""
    members = rng.sample(range(100), rng.randint(1, 40))
    if rng.random() < 0.4:
        region_of = {m: f"r{rng.randrange(3)}" for m in members if rng.random() < 0.9}
        zone_of = {m: f"z{rng.randrange(4)}" for m in members if rng.random() < 0.9}
        return HierarchicalGroupPlan.from_hierarchy(members, region_of, zone_of)
    members = members[:30]
    num_groups = rng.randint(1, 5)
    if rng.random() < 0.5:
        return RelayGroupPlan(groups=contiguous_groups(members, num_groups))
    return RelayGroupPlan(groups=round_robin_groups(members, num_groups))


class TestCachedTreesMatchPerRoundBuilder:
    """The per-plan pools draw exactly what one ``rng.choice`` per relay drew:
    equal trees and an equal RNG state after every round."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_plans_levels_and_reshuffles(self, seed):
        rng = random.Random(seed)
        plan = _random_plan(rng)
        reference = plan
        for levels in (1, 2, 3):
            for fixed_relays in (False, True):
                cached_rng = random.Random(seed * 7 + levels)
                reference_rng = random.Random(seed * 7 + levels)
                for round_index in range(24):
                    if round_index == 12:
                        plan = plan.reshuffle(cached_rng)
                        reference = reference.reshuffle(reference_rng)
                        assert plan == reference
                    trees = plan.build_trees(cached_rng, levels, fixed_relays)
                    expected = per_round_trees(reference, reference_rng, levels, fixed_relays)
                    assert [tree_shape(t) for t in trees] == [tree_shape(t) for t in expected]
                    assert cached_rng.getstate() == reference_rng.getstate()

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_planet_region_plan(self, levels):
        members = list(range(1, 81))
        region_of = {m: f"r{m // 27}" for m in members}
        zone_of = {m: f"z{m // 9}" for m in members}
        plan = HierarchicalGroupPlan.from_hierarchy(members, region_of, zone_of)
        cached_rng, reference_rng = random.Random(5), random.Random(5)
        for _ in range(200):
            trees = plan.build_trees(cached_rng, levels)
            expected = per_round_trees(plan, reference_rng, levels)
            assert [tree_shape(t) for t in trees] == [tree_shape(t) for t in expected]
        assert cached_rng.getstate() == reference_rng.getstate()


class TestPigPaxosPresetConfig:
    def test_defaults_are_valid(self):
        config = pig_config()
        assert config.overlay.kind == "relay"
        assert config.overlay.num_groups == 3
        assert config.overlay.relay_timeout == pytest.approx(0.05)
        assert config.leader_retry_timeout == pytest.approx(0.15)

    def test_invalid_group_count(self):
        with pytest.raises(ConfigurationError):
            pig_config(num_relay_groups=0)

    def test_leader_retry_must_exceed_relay_timeout(self):
        with pytest.raises(ConfigurationError):
            pig_config(relay_timeout=0.2, leader_retry_timeout=0.1)

    def test_threshold_range_checked(self):
        with pytest.raises(ConfigurationError):
            pig_config(group_response_threshold=1.5)
        assert pig_config(group_response_threshold=0.5).overlay.group_response_threshold == 0.5

    def test_relay_levels_validated(self):
        with pytest.raises(ConfigurationError):
            pig_config(relay_levels=0)
