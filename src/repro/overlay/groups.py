"""Relay-group construction and per-round relay tree building.

The paper (Section 3.2) partitions all followers into a fixed number of
disjoint relay groups, either arbitrarily (contiguous / round-robin) or following
the cluster topology (one group per region in the WAN deployment).  Per
round, the fan-out root picks one random member of each group as the relay.
This module provides the partitioners, the per-round tree builder (including
the optional multi-level nesting of Section 6.3) and dynamic reshuffling
(Section 4.1).  :class:`~repro.overlay.relay.RelayFanout` drives it for both
protocol families.

A round's work is one draw per relay.  Each plan sets up, once, a pool per
group (and per zone, for each relay that can be excluded from it) holding
the member list, its size and the size's ``bit_length()``; a round draws
each relay with the ``getrandbits`` rejection loop that ``rng.choice``
runs, inlined, so the draws, the trees and the RNG state are exactly those
of ``rng.choice``.  What a drawn index yields is memoised in its pool, so a
relay's one-level subtree is built once per plan, not once per round.

Hierarchical topologies (region -> zone -> node) get a topology-aware plan:
:class:`HierarchicalGroupPlan` keeps one group per region (the one-level
special case is exactly :func:`region_groups`) and, at ``relay_levels > 1``,
nests one sub-relay per *zone* inside each region's tree instead of the
arbitrary contiguous sqrt-splitting -- region relays -> zone relays ->
leaves, so each tree edge crosses the cheapest link that can carry it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.overlay.messages import RelaySubtree


def contiguous_groups(members: Sequence[int], num_groups: int) -> List[List[int]]:
    """Split ``members`` into ``num_groups`` contiguous, near-equal groups."""
    members = list(members)
    if num_groups < 1:
        raise ConfigurationError("num_groups must be >= 1")
    num_groups = min(num_groups, len(members)) or 1
    groups: List[List[int]] = [[] for _ in range(num_groups)]
    base, extra = divmod(len(members), num_groups)
    index = 0
    for group_index in range(num_groups):
        size = base + (1 if group_index < extra else 0)
        groups[group_index] = members[index:index + size]
        index += size
    return [group for group in groups if group]


def round_robin_groups(members: Sequence[int], num_groups: int) -> List[List[int]]:
    """Deal ``members`` into groups round-robin (interleaved membership)."""
    members = list(members)
    if num_groups < 1:
        raise ConfigurationError("num_groups must be >= 1")
    num_groups = min(num_groups, len(members)) or 1
    groups: List[List[int]] = [[] for _ in range(num_groups)]
    for position, member in enumerate(members):
        groups[position % num_groups].append(member)
    return [group for group in groups if group]


def region_groups(members: Sequence[int], region_of: Dict[int, str]) -> List[List[int]]:
    """One relay group per region, as in the paper's WAN deployment (Fig. 9)."""
    by_region: Dict[str, List[int]] = {}
    leftovers: List[int] = []
    for member in members:
        region = region_of.get(member)
        if region is None:
            leftovers.append(member)
        else:
            by_region.setdefault(region, []).append(member)
    groups = [sorted(nodes) for _, nodes in sorted(by_region.items())]
    if leftovers:
        groups.append(sorted(leftovers))
    if not groups:
        raise ConfigurationError("region grouping produced no groups")
    return groups


@dataclass
class RelayGroupPlan:
    """The current partition of followers into relay groups, plus tree building.

    A relay overlay builds its plan from its host's peers on first use;
    after that the plan changes only when it is reshuffled (Section 4.1)
    or replaced through ``set_plan`` -- never on a leader change.
    """

    groups: List[List[int]]

    def __post_init__(self) -> None:
        seen: set = set()
        for group in self.groups:
            if not group:
                raise ConfigurationError("relay groups must be non-empty")
            for member in group:
                if member in seen:
                    raise ConfigurationError(f"node {member} appears in more than one relay group")
                seen.add(member)
        #: The childless subtree of every member: immutable, so one object
        #: serves every round's trees instead of a fresh one per leaf per round.
        self._leaves: Dict[int, RelaySubtree] = {
            member: RelaySubtree(node_id=member) for member in sorted(seen)
        }
        #: ``levels`` -> one :class:`_RelayPool` per group, set up by the
        #: first round built at that depth.
        self._pools: Dict[int, Tuple[_RelayPool, ...]] = {}

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def members(self) -> List[int]:
        return [member for group in self.groups for member in group]

    def group_of(self, node: int) -> Optional[int]:
        for index, group in enumerate(self.groups):
            if node in group:
                return index
        return None

    def reshuffle(self, rng: random.Random) -> "RelayGroupPlan":
        """Return a new plan with the same group sizes but shuffled membership."""
        members = self.members
        rng.shuffle(members)
        sizes = [len(group) for group in self.groups]
        regrouped: List[List[int]] = []
        index = 0
        for size in sizes:
            regrouped.append(members[index:index + size])
            index += size
        return RelayGroupPlan(groups=regrouped)

    # ------------------------------------------------------------------ trees
    def build_trees(
        self,
        rng: random.Random,
        levels: int = 1,
        fixed_relays: bool = False,
    ) -> List[RelaySubtree]:
        """Build one relay tree per group for a single round."""
        pools = self._pools
        if levels in pools:
            group_pools = pools[levels]
        else:
            group_pools = pools[levels] = self._group_pools(levels)
        return self._draw(group_pools, rng.getrandbits, fixed_relays)

    def _group_pools(self, levels: int) -> Tuple[_RelayPool, ...]:
        return tuple([_RelayPool(group, levels) for group in self.groups])

    def _draw(
        self,
        pools: Tuple[_RelayPool, ...],
        getrandbits: Callable[[int], int],
        fixed_relays: bool,
    ) -> List[RelaySubtree]:
        """One relay per pool, in order, and the tree below each.

        A relay is the pool's first member when relays are fixed, else a
        draw of ``Random.choice``'s own ``getrandbits`` rejection loop
        (CPython's ``_randbelow_with_getrandbits``), inlined: the same
        draws, so the same trees and RNG state, as ``rng.choice(members)``.
        Sub-relays are drawn depth first, as the recursion always drew them.
        """
        trees = []
        for pool in pools:
            index = 0
            if not fixed_relays:
                n = pool.n
                k = pool.k
                index = getrandbits(k)
                while index >= n:
                    index = getrandbits(k)
            drawn = pool.drawn
            if index in drawn:
                tree = drawn[index]
            else:
                tree = drawn[index] = self._expand(pool, index)
            if pool.nested:
                tree = RelaySubtree(
                    pool.members[index], tuple(self._draw(tree, getrandbits, fixed_relays))
                )
            # ``+=``, not ``append``: adding a tree costs no call.
            trees += (tree,)
        return trees

    def _expand(self, pool: _RelayPool, index: int) -> Any:
        """What drawing ``pool.members[index]`` yields, computed once per plan.

        A relay that nests sub-relays yields the pools they are drawn from:
        the rest of its members split into about ``sqrt`` contiguous
        sub-groups, one level down.  Any other relay yields its whole
        subtree, the rest of its members as leaves.
        """
        relay = pool.members[index]
        rest = [member for member in pool.members if member != relay]
        if not pool.nested:
            leaves = self._leaves
            return RelaySubtree(node_id=relay, children=tuple([leaves[member] for member in rest]))
        num_subgroups = max(1, int(round(len(rest) ** 0.5)))
        return tuple([
            _RelayPool(subgroup, pool.levels - 1)
            for subgroup in contiguous_groups(rest, num_subgroups)
        ])


class _RelayPool:
    """The members one relay is drawn from, set up once per plan.

    ``n`` is the member count and ``k`` its ``bit_length()``, the two
    numbers a draw needs.  ``drawn`` memoises, by drawn index, what that
    relay yields (:meth:`RelayGroupPlan._expand`): its subtree, or -- when
    it ``nested`` sub-relays -- the pools they are drawn from.  A new plan
    (a reshuffle, ``set_plan``) has new pools, so nothing outlives its plan.
    """

    __slots__ = ("members", "n", "k", "levels", "nested", "zones", "drawn")

    def __init__(self, members: List[int], levels: int, zones: Optional[list] = None) -> None:
        self.members = members
        self.n = n = len(members)
        self.k = n.bit_length()
        self.levels = levels
        #: A region group's zones as ``(members, {excluded relay or None:
        #: pool})`` pairs (:class:`HierarchicalGroupPlan`); None otherwise.
        self.zones = zones
        # A relay nests sub-relays while levels remain and more than one
        # other member is left; a region relay always nests its zone relays.
        self.nested = zones is not None or (levels > 1 and n > 2)
        self.drawn: Dict[int, Any] = {}


@dataclass
class HierarchicalGroupPlan(RelayGroupPlan):
    """A region-aligned plan whose groups are further partitioned by zone.

    ``groups`` holds one group per region (plus a trailing leftover group
    for members outside every region), exactly as :func:`region_groups`
    produces them; ``zones`` is the parallel per-group partition into zone
    member lists.  At ``relay_levels <= 1`` the plan behaves identically to
    a plain region plan (same trees, same RNG draws); deeper levels route
    region relay -> zone relays -> leaves.  Reshuffling preserves both
    boundaries: membership is re-dealt *within* each zone only, so the
    rebuilt multi-level tree still follows the topology.
    """

    zones: List[List[List[int]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.zones) != len(self.groups):
            raise ConfigurationError("need one zone partition per relay group")
        for group, zone_partition in zip(self.groups, self.zones):
            flattened = [m for zone in zone_partition for m in zone]
            if sorted(flattened) != sorted(group):
                raise ConfigurationError(
                    "zone partition does not partition its relay group"
                )

    @classmethod
    def from_hierarchy(
        cls,
        members: Sequence[int],
        region_of: Dict[int, str],
        zone_of: Dict[int, str],
    ) -> "HierarchicalGroupPlan":
        """Plan from a region map + zone map (unzoned members form a
        pseudo-zone per group, regionless members a trailing group)."""
        groups = region_groups(members, region_of)
        zones: List[List[List[int]]] = []
        for group in groups:
            by_zone: Dict[str, List[int]] = {}
            unzoned: List[int] = []
            for member in group:
                zone = zone_of.get(member)
                if zone is None:
                    unzoned.append(member)
                else:
                    by_zone.setdefault(zone, []).append(member)
            partition = [sorted(nodes) for _, nodes in sorted(by_zone.items())]
            if unzoned:
                partition.append(sorted(unzoned))
            zones.append(partition)
        # Re-order each group to its zone-partition order so tree building
        # and reshuffling can walk groups and zones in lockstep.
        regrouped = [[m for zone in partition for m in zone] for partition in zones]
        return cls(groups=regrouped, zones=zones)

    def reshuffle(self, rng: random.Random) -> "HierarchicalGroupPlan":
        """Re-deal membership within each zone (boundaries are topology)."""
        new_groups: List[List[int]] = []
        new_zones: List[List[List[int]]] = []
        for zone_partition in self.zones:
            shuffled_partition: List[List[int]] = []
            for zone_members in zone_partition:
                members = list(zone_members)
                rng.shuffle(members)
                shuffled_partition.append(members)
            new_zones.append(shuffled_partition)
            new_groups.append([m for zone in shuffled_partition for m in zone])
        return HierarchicalGroupPlan(groups=new_groups, zones=new_zones)

    def _group_pools(self, levels: int) -> Tuple[_RelayPool, ...]:
        if levels <= 1:
            # One-level trees are zone-blind: the same pools, so the same
            # relays, as a plain region plan.
            return super()._group_pools(levels)
        return tuple([
            _RelayPool(group, levels, zones=[(zone, {}) for zone in partition])
            for group, partition in zip(self.groups, self.zones)
        ])

    def _expand(self, pool: _RelayPool, index: int) -> Any:
        """A region relay nests one sub-relay per zone it leaves non-empty.

        Each zone's pool is set up once for each relay that can be excluded
        from it (``None`` when the region relay is outside the zone).
        """
        if pool.zones is None:
            return super()._expand(pool, index)
        relay = pool.members[index]
        children = []
        for zone, by_excluded in pool.zones:
            excluded = relay if relay in zone else None
            if excluded in by_excluded:
                zone_pool = by_excluded[excluded]
            else:
                rest = [member for member in zone if member != relay]
                zone_pool = by_excluded[excluded] = (
                    _RelayPool(rest, pool.levels - 1) if rest else None
                )
            if zone_pool is not None:
                children.append(zone_pool)
        return tuple(children)
