"""One-way network latency models.

The paper evaluates both a single-datacenter (LAN) setting and a WAN setting
spanning the AWS Virginia, California and Oregon regions.  The latency models
here cover both: simple constant/jittered latencies for LAN links, and a
region-to-region matrix for WAN links.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from math import cos, log, pi, sin, sqrt
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError


class LinkDelay(NamedTuple):
    """The static part of one link's delay, in one of three shapes.

    * constant: exactly ``base``, no draw (``low`` and ``stddev`` None);
    * uniform jitter: ``base * (low + width * rng.random())``;
    * truncated normal: ``base + z * stddev`` for a polar-method gauss
      ``z``, or ``floor`` when that is not above it.
    """

    base: float
    low: Optional[float] = None
    width: Optional[float] = None
    stddev: Optional[float] = None
    floor: Optional[float] = None


class LatencyModel(ABC):
    """Computes the one-way propagation delay between two nodes."""

    @abstractmethod
    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        """Return the one-way delay in seconds for a message from src to dst."""

    @abstractmethod
    def link(self, src: int, dst: int) -> LinkDelay:
        """The static part of the ``src -> dst`` delay.

        The network resolves this once per link and makes the per-send draw
        itself, with the arithmetic of :meth:`delay` (which stays the
        per-send definition and the reference the tests compare against).
        """

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """A fixed one-way delay for every pair of distinct nodes."""

    one_way: float = 0.00025

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        if src == dst:
            return 0.0
        return self.one_way

    def link(self, src: int, dst: int) -> LinkDelay:
        return LinkDelay(0.0 if src == dst else self.one_way)


@dataclass(frozen=True)
class NormalLatency(LatencyModel):
    """One-way delay drawn from a truncated normal distribution."""

    mean: float = 0.00025
    stddev: float = 0.00005
    floor: float = 0.00005

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        if src == dst:
            return 0.0
        # random.Random.gauss inlined (same polar-method algorithm and
        # spare-value caching, so the draw sequence is bit-identical);
        # SimNetwork.send repeats it from the link record.
        z = rng.gauss_next
        rng.gauss_next = None
        if z is None:
            uniform = rng.random
            x2pi = uniform() * (2.0 * pi)
            g2rad = sqrt(-2.0 * log(1.0 - uniform()))
            z = cos(x2pi) * g2rad
            rng.gauss_next = sin(x2pi) * g2rad
        value = self.mean + z * self.stddev
        floor = self.floor
        return value if value > floor else floor

    def link(self, src: int, dst: int) -> LinkDelay:
        if src == dst:
            return LinkDelay(0.0)
        return LinkDelay(self.mean, stddev=self.stddev, floor=self.floor)


# Approximate one-way inter-region latencies (seconds) between the AWS regions
# used in the paper's Figure 9: us-east-1 (Virginia), us-west-1 (California),
# us-west-2 (Oregon).  Values reflect publicly reported RTTs divided by two.
DEFAULT_WAN_MATRIX: Dict[Tuple[str, str], float] = {
    ("virginia", "virginia"): 0.00025,
    ("california", "california"): 0.00025,
    ("oregon", "oregon"): 0.00025,
    ("virginia", "california"): 0.031,
    ("virginia", "oregon"): 0.034,
    ("california", "oregon"): 0.010,
}


@dataclass
class WANMatrixLatency(LatencyModel):
    """Region-to-region latency matrix with per-node region assignment.

    Attributes:
        node_region: Maps node id to region name.
        matrix: One-way latency between region pairs.  Symmetric lookups are
            performed automatically; intra-region latency falls back to
            ``local_one_way`` if no explicit entry exists.
        jitter: Fractional uniform jitter applied to each draw (0.05 = +/-5%).
        node_zone: Optional node id -> zone name assignment for hierarchical
            (region -> zone -> node) topologies.  When both endpoints share a
            region *and* a zone, the cheaper ``zone_one_way`` applies, so the
            hierarchy's latency ordering holds: intra-zone < intra-region <
            cross-region.  An empty map (the default, and every flat/WAN
            topology) reproduces the historical two-tier behaviour exactly.
        zone_one_way: Intra-zone one-way latency (same rack row / AZ).
    """

    node_region: Mapping[int, str]
    matrix: Mapping[Tuple[str, str], float] = field(default_factory=lambda: dict(DEFAULT_WAN_MATRIX))
    local_one_way: float = 0.00025
    jitter: float = 0.05
    node_zone: Mapping[int, str] = field(default_factory=dict)
    zone_one_way: float = 0.0001

    def __post_init__(self) -> None:
        if self.node_zone and self.zone_one_way > self.local_one_way:
            raise ConfigurationError(
                "hierarchical latency needs zone_one_way <= local_one_way "
                "(intra-zone links cannot be slower than intra-region ones)"
            )

    def region_of(self, node: int) -> str:
        try:
            return self.node_region[node]
        except KeyError as exc:
            raise ConfigurationError(f"node {node!r} has no region assignment") from exc

    def base_delay(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        # Endpoints without a region assignment (benchmark clients) are treated
        # as co-located with whatever node they are talking to, mirroring the
        # paper's setup where client VMs sit next to the replicas they drive.
        if src not in self.node_region or dst not in self.node_region:
            return self.local_one_way
        region_a, region_b = self.region_of(src), self.region_of(dst)
        if region_a == region_b and self.node_zone:
            # Hierarchy leg: endpoints sharing a zone ride the cheaper
            # intra-zone link; same-region-different-zone pairs keep the
            # intra-region latency below.
            zone_a = self.node_zone.get(src)
            if zone_a is not None and zone_a == self.node_zone.get(dst):
                return self.zone_one_way
        value = self.matrix.get((region_a, region_b))
        if value is None:
            value = self.matrix.get((region_b, region_a))
        if value is None:
            if region_a == region_b:
                return self.local_one_way
            raise ConfigurationError(
                f"no latency entry between regions {region_a!r} and {region_b!r}"
            )
        return value

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        base = self.base_delay(src, dst)
        if base == 0.0 or self.jitter <= 0.0:
            return base
        return base * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)

    def link(self, src: int, dst: int) -> LinkDelay:
        base = self.base_delay(src, dst)
        if base == 0.0 or self.jitter <= 0.0:
            return LinkDelay(base)
        # rng.uniform(a, b) is exactly a + (b - a) * rng.random().
        low = 1.0 - self.jitter
        return LinkDelay(base, low, (1.0 + self.jitter) - low)
