"""Deterministic key->shard routing and leader placement.

The router partitions the workload's key *index space* ``[0, num_keys)``
into contiguous ranges -- shard ``i`` owns ``[i*K//S, (i+1)*K//S)`` -- and
resolves it once per cluster into a table over the keys themselves (key
``i`` is ``WorkloadSpec.key(i)``), so a client's per-command lookup is one
dict subscript.  The table holds exactly the keys a client can draw.

Every mapping here is pure arithmetic over sequences and immutable tuples:
no dict or set iteration, no RNG, no ambient state.  Two processes with the
same keys and groups agree on every key, which is what lets the per-key
linearizability checker treat a sharded run exactly like an unsharded one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.shard.addressing import shard_endpoint


@dataclass(frozen=True)
class ShardMap:
    """Contiguous key-range partition of the index space ``[0, num_keys)``.

    Shard ``i`` owns indices ``[i*num_keys//num_shards,
    (i+1)*num_keys//num_shards)`` -- the ranges tile the keyspace exactly
    (no gaps, no overlaps) and differ in size by at most one key.
    """

    num_shards: int
    num_keys: int
    _boundaries: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_keys < 1:
            raise ConfigurationError(f"num_keys must be >= 1, got {self.num_keys}")
        if not 1 <= self.num_shards <= self.num_keys:
            raise ConfigurationError(
                f"num_shards must be in [1, num_keys={self.num_keys}], "
                f"got {self.num_shards}"
            )
        object.__setattr__(
            self,
            "_boundaries",
            tuple(i * self.num_keys // self.num_shards for i in range(self.num_shards + 1)),
        )

    def shard_of_index(self, index: int) -> int:
        """The shard owning key index ``index`` (indices wrap modulo keyspace)."""
        return bisect_right(self._boundaries, index % self.num_keys) - 1

    def range_of(self, shard: int) -> Tuple[int, int]:
        """Half-open index range ``[lo, hi)`` owned by ``shard``."""
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"shard must be in [0, {self.num_shards}), got {shard}"
            )
        return self._boundaries[shard], self._boundaries[shard + 1]


def round_robin_leaders(num_shards: int, node_ids: Sequence[int]) -> Tuple[int, ...]:
    """Initial leader endpoint per shard, spread round-robin across nodes.

    Shard ``s`` elects its replica hosted on ``node_ids[s % len(node_ids)]``,
    so with >= ``len(node_ids)`` shards every physical node carries an equal
    (+/-1) share of the leaders -- the load-spreading that makes the
    multi-group ops/sec curve climb instead of re-bottlenecking one machine.
    """
    if not node_ids:
        raise ConfigurationError("round_robin_leaders needs at least one node")
    ids = tuple(node_ids)
    return tuple(shard_endpoint(s, ids[s % len(ids)]) for s in range(num_shards))


class ShardRouter:
    """What a workload client needs to aim a command at the right group.

    ``keys[i]`` is the workload's key ``i``; ``groups[s]`` is shard ``s``'s
    replica endpoints and ``leaders[s]`` its initial leader endpoint.  The
    shard count is ``len(groups)`` (one for an unsharded cluster).
    ``shard_of`` maps every key to its owning shard.  Instances are not
    mutated after construction; clients keep their own mutable leader
    *hints* on top.
    """

    def __init__(
        self,
        keys: Sequence[str],
        groups: Sequence[Sequence[int]],
        leaders: Sequence[int],
    ) -> None:
        shard_map = ShardMap(len(groups), len(keys))
        if len(leaders) != len(groups):
            raise ConfigurationError(
                f"expected {len(groups)} shard leaders, got {len(leaders)}"
            )
        self.groups: Tuple[Tuple[int, ...], ...] = tuple(tuple(group) for group in groups)
        self.leaders: Tuple[int, ...] = tuple(leaders)
        for shard, (group, leader) in enumerate(zip(self.groups, self.leaders)):
            if not group:
                raise ConfigurationError(f"shard {shard} has an empty replica group")
            if leader not in group:
                raise ConfigurationError(
                    f"shard {shard} leader endpoint {leader} is not in its group"
                )
        self.shard_of: Dict[str, int] = {
            key: shard_map.shard_of_index(index) for index, key in enumerate(keys)
        }
