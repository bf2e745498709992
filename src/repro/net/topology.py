"""Cluster topology descriptions: which nodes exist and where they live.

A topology knows the node ids, the optional placement of each node in a
region -> zone -> node hierarchy (used for WAN latency and topology-aligned
PigPaxos relay trees), the latency model and the per-link bandwidth.

The hierarchy is strictly optional and strictly nested: a flat topology has
no regions at all, a WAN topology has regions without zones (the degenerate
one-zone-per-region case), and a planet-scale topology subdivides each
region into availability zones.  Every consumer that only understands
regions (``region_map``/``region_of``) sees exactly the same answers for a
zoned topology as for its flattened equivalent, which is what keeps all
pre-hierarchy call sites and recorded fingerprints byte-identical.

Topology presets matching the paper's deployments live in
:mod:`repro.cluster.topologies`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.net.latency import ConstantLatency, LatencyModel

#: Endpoint ids fold onto machines modulo this stride: endpoint ``e`` runs
#: on machine ``e % SHARD_ENDPOINT_STRIDE``, which is what the network
#: prices links and judges faults between.  Shard ``s``'s replica on node
#: ``n`` is endpoint ``s * SHARD_ENDPOINT_STRIDE + n``
#: (:mod:`repro.shard.addressing`); node ids and client ids
#: (``CLIENT_ID_BASE`` = 1000) both stay below it.
SHARD_ENDPOINT_STRIDE = 1_000_000


@dataclass(frozen=True)
class Zone:
    """A named group of co-located nodes within a region (e.g. an AWS AZ)."""

    name: str
    nodes: tuple

    def __contains__(self, node: int) -> bool:
        return node in self.nodes


@dataclass(frozen=True)
class Region:
    """A named group of co-located nodes (e.g. an AWS region).

    ``zones`` optionally subdivides the region into availability zones; an
    empty tuple (the historical construction) is the degenerate one-zone
    case.  When zones are given they must partition a subset of the
    region's nodes -- a node in a zone must be in its region, and in no
    other zone.
    """

    name: str
    nodes: tuple
    zones: tuple = ()

    def __contains__(self, node: int) -> bool:
        return node in self.nodes


@dataclass
class Topology:
    """Static description of the cluster's communication fabric.

    Attributes:
        node_ids: All consensus node ids (clients get separate ids).
        latency: One-way latency model.
        bandwidth_bytes_per_sec: Per-link bandwidth used to charge
            transmission time for large messages.  ``None`` disables the
            bandwidth term (latency only).
        regions: Optional region grouping of nodes; each region may carry
            zones (see :class:`Region`).
    """

    node_ids: Sequence[int]
    latency: LatencyModel = field(default_factory=ConstantLatency)
    bandwidth_bytes_per_sec: Optional[float] = 1.25e9 / 8 * 8  # 1.25 GB/s (10 Gbit)
    regions: List[Region] = field(default_factory=list)

    def __post_init__(self) -> None:
        ids = list(self.node_ids)
        if len(ids) != len(set(ids)):
            raise ConfigurationError("duplicate node ids in topology")
        if not ids:
            raise ConfigurationError("topology needs at least one node")
        self.node_ids = tuple(ids)
        covered = [n for region in self.regions for n in region.nodes]
        if covered and len(covered) != len(set(covered)):
            raise ConfigurationError("a node is assigned to more than one region")
        zone_names: set = set()
        for region in self.regions:
            zoned: List[int] = []
            for zone in region.zones:
                if zone.name in zone_names:
                    raise ConfigurationError(f"duplicate zone name {zone.name!r}")
                zone_names.add(zone.name)
                for node in zone.nodes:
                    if node not in region.nodes:
                        raise ConfigurationError(
                            f"zone {zone.name!r} claims node {node} outside "
                            f"its region {region.name!r}"
                        )
                zoned.extend(zone.nodes)
            if len(zoned) != len(set(zoned)):
                raise ConfigurationError(
                    f"a node in region {region.name!r} is assigned to more than one zone"
                )

    @property
    def size(self) -> int:
        return len(self.node_ids)

    def region_of(self, node: int) -> Optional[str]:
        for region in self.regions:
            if node in region:
                return region.name
        return None

    def region_map(self) -> Dict[int, str]:
        """Node id -> region name for all nodes covered by a region."""
        return {node: region.name for region in self.regions for node in region.nodes}

    def nodes_in_region(self, name: str) -> List[int]:
        for region in self.regions:
            if region.name == name:
                return list(region.nodes)
        raise ConfigurationError(f"unknown region {name!r}")

    # ------------------------------------------------------------------ zones
    def zone_of(self, node: int) -> Optional[str]:
        for region in self.regions:
            for zone in region.zones:
                if node in zone:
                    return zone.name
        return None

    def zone_map(self) -> Dict[int, str]:
        """Node id -> zone name for all nodes covered by a zone.

        Empty for flat and region-only topologies; hierarchy-aware
        consumers (relay tree planning, the network's cross-zone traffic
        accounting) treat an empty map as "no hierarchy" and keep the
        historical behaviour.
        """
        return {
            node: zone.name
            for region in self.regions
            for zone in region.zones
            for node in zone.nodes
        }

    def nodes_in_zone(self, name: str) -> List[int]:
        for region in self.regions:
            for zone in region.zones:
                if zone.name == name:
                    return list(zone.nodes)
        raise ConfigurationError(f"unknown zone {name!r}")

    def transmission_delay(self, size_bytes: int) -> float:
        """Serialization/transmission time for ``size_bytes`` on one link."""
        if not self.bandwidth_bytes_per_sec:
            return 0.0
        return size_bytes / self.bandwidth_bytes_per_sec
