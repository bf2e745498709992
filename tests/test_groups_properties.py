"""Property-based tests for the relay-group planners and tree builder.

Seeded random cluster shapes (the container has no hypothesis, so this is
a hand-rolled property harness: each seed generates one random case and
asserts the planner invariants the PigPaxos overlay depends on):

* every follower lands in exactly one group,
* the group count honours the configuration,
* contiguous groups are ordered slices and round-robin deals by position,
* region grouping respects the ``region_of`` map,
* per-round relay trees cover each group member exactly once, each tree
  spans only its own group and nests no deeper than ``levels``, and
* reshuffling keeps the membership and the group sizes.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.overlay.groups import (
    HierarchicalGroupPlan,
    RelayGroupPlan,
    contiguous_groups,
    region_groups,
    round_robin_groups,
)

SEEDS = list(range(30))

PARTITIONERS = (contiguous_groups, round_robin_groups)


def random_members(rng: random.Random) -> list:
    size = rng.randint(1, 60)
    members = rng.sample(range(1000), size)
    rng.shuffle(members)
    return members


class TestPartitioners:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("partitioner", PARTITIONERS, ids=lambda p: p.__name__)
    def test_every_follower_appears_exactly_once(self, partitioner, seed):
        rng = random.Random(seed)
        members = random_members(rng)
        num_groups = rng.randint(1, 8)
        groups = partitioner(members, num_groups)
        flat = [member for group in groups for member in group]
        assert sorted(flat) == sorted(members)
        assert len(flat) == len(set(flat))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("partitioner", PARTITIONERS, ids=lambda p: p.__name__)
    def test_group_count_matches_config(self, partitioner, seed):
        rng = random.Random(seed)
        members = random_members(rng)
        num_groups = rng.randint(1, 8)
        groups = partitioner(members, num_groups)
        assert len(groups) == min(num_groups, len(members))
        assert all(group for group in groups)

    @pytest.mark.parametrize("partitioner", PARTITIONERS, ids=lambda p: p.__name__)
    def test_zero_groups_rejected(self, partitioner):
        with pytest.raises(ConfigurationError):
            partitioner([1, 2, 3], 0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_group_sizes_are_balanced(self, seed):
        # Contiguous and round-robin promise near-equal sizes (max spread 1).
        rng = random.Random(seed)
        members = random_members(rng)
        num_groups = rng.randint(1, 8)
        for partitioner in (contiguous_groups, round_robin_groups):
            sizes = [len(group) for group in partitioner(members, num_groups)]
            assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_contiguous_groups_are_ordered_slices(self, seed):
        # Multi-level trees split a group's remainder with this partitioner,
        # so each sub-relay must own one run of the input, larger runs first.
        rng = random.Random(seed)
        members = random_members(rng)
        groups = contiguous_groups(members, rng.randint(1, 8))
        assert [member for group in groups for member in group] == members
        sizes = [len(group) for group in groups]
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_robin_deals_by_position(self, seed):
        rng = random.Random(seed)
        members = random_members(rng)
        num_groups = rng.randint(1, 8)
        groups = round_robin_groups(members, num_groups)
        stride = min(num_groups, len(members))
        assert groups == [members[index::stride] for index in range(stride)]


class TestRegionGroups:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_region_grouping_respects_region_of(self, seed):
        rng = random.Random(seed)
        members = random_members(rng)
        regions = ("virginia", "california", "oregon", "tokyo")
        region_of = {
            member: rng.choice(regions)
            for member in members
            if rng.random() > 0.1  # some members have no region (leftovers)
        }
        groups = region_groups(members, region_of)
        flat = [member for group in groups for member in group]
        assert sorted(flat) == sorted(members)
        for group in groups:
            group_regions = {region_of.get(member) for member in group}
            assert len(group_regions) == 1  # one region per group (None = leftovers)
        present = {region_of[m] for m in members if m in region_of}
        leftovers = [m for m in members if m not in region_of]
        assert len(groups) == len(present) + (1 if leftovers else 0)


class TestRelayTrees:
    @pytest.mark.parametrize("seed", SEEDS[:12])
    @pytest.mark.parametrize("levels", (1, 2, 3))
    def test_trees_cover_every_member_exactly_once(self, seed, levels):
        rng = random.Random(seed)
        members = random_members(rng)
        num_groups = rng.randint(1, 6)
        plan = RelayGroupPlan(groups=round_robin_groups(members, num_groups))
        trees = plan.build_trees(rng, levels=levels)
        assert len(trees) == plan.num_groups
        covered = [node for tree in trees for node in tree.all_nodes()]
        assert sorted(covered) == sorted(members)
        assert len(covered) == len(set(covered))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_tree_spans_its_own_group_within_the_level_bound(self, seed):
        # wide_cast hands tree i to group i's relay, so a tree must hold
        # exactly its own group, be rooted at one of its members and nest
        # no deeper than ``levels`` hops.
        rng = random.Random(seed)
        members = random_members(rng)
        plan = RelayGroupPlan(groups=round_robin_groups(members, rng.randint(1, 6)))
        levels = rng.randint(1, 3)
        trees = plan.build_trees(rng, levels=levels)
        assert len(trees) == plan.num_groups
        for tree, group in zip(trees, plan.groups):
            assert sorted(tree.all_nodes()) == sorted(group)
            assert tree.node_id in group
            assert tree_depth(tree) <= levels

    @pytest.mark.parametrize("seed", SEEDS[:12])
    def test_reshuffle_preserves_membership_and_sizes(self, seed):
        rng = random.Random(seed)
        members = random_members(rng)
        plan = RelayGroupPlan(groups=round_robin_groups(members, rng.randint(1, 6)))
        reshuffled = plan.reshuffle(rng)
        assert sorted(reshuffled.members) == sorted(members)
        assert [len(g) for g in reshuffled.groups] == [len(g) for g in plan.groups]

    def test_duplicate_membership_rejected(self):
        with pytest.raises(ConfigurationError):
            RelayGroupPlan(groups=[[1, 2], [2, 3]])

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigurationError):
            RelayGroupPlan(groups=[[1], []])


def tree_shape(tree):
    """Structural view of a RelaySubtree (the class itself compares by id)."""
    return (tree.node_id, tuple(tree_shape(child) for child in tree.children))


def tree_depth(tree) -> int:
    """Hops from a RelaySubtree's root to its deepest leaf."""
    return max((1 + tree_depth(child) for child in tree.children), default=0)


def random_hierarchy(rng: random.Random):
    """A random member set with region/zone placement (some members bare)."""
    members = random_members(rng)
    regions = ("virginia", "california", "oregon", "tokyo")[: rng.randint(2, 4)]
    zones_per_region = rng.randint(1, 3)
    region_of, zone_of = {}, {}
    for member in members:
        if rng.random() < 0.1:
            continue  # regionless leftover
        region = rng.choice(regions)
        region_of[member] = region
        if rng.random() < 0.9:
            zone_of[member] = f"{region}-z{rng.randrange(zones_per_region)}"
    return members, region_of, zone_of


class TestHierarchicalPlans:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_plan_partitions_every_member(self, seed):
        rng = random.Random(seed)
        members, region_of, zone_of = random_hierarchy(rng)
        plan = HierarchicalGroupPlan.from_hierarchy(members, region_of, zone_of)
        assert sorted(plan.members) == sorted(members)
        for group, partition in zip(plan.groups, plan.zones):
            flat = [m for zone in partition for m in zone]
            assert sorted(flat) == sorted(group)
            assert {region_of.get(m) for m in group} <= {None} | set(
                region_of.values()
            )
            assert len({region_of.get(m) for m in group}) == 1

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("levels", (2, 3))
    def test_deep_trees_cover_members_and_respect_zones(self, seed, levels):
        rng = random.Random(seed)
        members, region_of, zone_of = random_hierarchy(rng)
        plan = HierarchicalGroupPlan.from_hierarchy(members, region_of, zone_of)
        trees = plan.build_trees(rng, levels=levels)
        covered = [node for tree in trees for node in tree.all_nodes()]
        assert sorted(covered) == sorted(members)
        assert len(covered) == len(set(covered))
        for tree, group in zip(trees, plan.groups):
            # The group relay comes from its own region group...
            assert tree.node_id in group
            # ...and each of its child subtrees stays inside one zone (the
            # unzoned pseudo-zone counts as a zone of its own).
            for child in tree.children:
                child_zones = {zone_of.get(n) for n in child.all_nodes()}
                assert len(child_zones) == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zoneless_plan_degenerates_to_plain_region_plan(self, seed):
        # The degenerate case behind the golden-fingerprint guarantee: with
        # no zone placement at all, the hierarchical plan is exactly the
        # plain region plan -- same groups, and identical trees from
        # identical RNG state at every level.
        rng = random.Random(seed)
        members, region_of, _ = random_hierarchy(rng)
        plan = HierarchicalGroupPlan.from_hierarchy(members, region_of, {})
        plain = RelayGroupPlan(groups=region_groups(members, region_of))
        assert plan.groups == plain.groups
        trees = plan.build_trees(random.Random(seed + 1), levels=1)
        expected = plain.build_trees(random.Random(seed + 1), levels=1)
        assert [tree_shape(t) for t in trees] == [tree_shape(t) for t in expected]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reshuffle_preserves_zone_membership(self, seed):
        rng = random.Random(seed)
        members, region_of, zone_of = random_hierarchy(rng)
        plan = HierarchicalGroupPlan.from_hierarchy(members, region_of, zone_of)
        reshuffled = plan.reshuffle(rng)
        assert isinstance(reshuffled, HierarchicalGroupPlan)
        assert sorted(reshuffled.members) == sorted(members)
        for before, after in zip(plan.zones, reshuffled.zones):
            assert [sorted(z) for z in before] == [sorted(z) for z in after]

    def test_mismatched_zone_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchicalGroupPlan(groups=[[1, 2]], zones=[[[1], [3]]])
        with pytest.raises(ConfigurationError):
            HierarchicalGroupPlan(groups=[[1, 2], [3]], zones=[[[1, 2]]])
