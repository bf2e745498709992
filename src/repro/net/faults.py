"""Network-level fault injection: drops, partitions and severed links.

Node crashes are modelled at the node level (:mod:`repro.cluster.node`);
the faults here affect the fabric between live nodes.  The paper's failure
experiment (Figure 13) crashes a node outright, but link-level faults are
needed for the liveness/partition tests and the ablation benchmarks.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Iterable, Set, Tuple

from repro.net.topology import SHARD_ENDPOINT_STRIDE


class NetworkFaults:
    """Mutable record of currently active network faults.

    ``lossy`` is a plain attribute maintained by every mutator (cheaper than
    recomputing per send): True whenever any fault that can drop messages is
    active.  The network's send path reads it to skip :meth:`should_drop`
    entirely in the fault-free common case.  Skipping is RNG-neutral:
    ``should_drop`` only consumes randomness when ``drop_probability`` is
    positive, so fault-free runs keep byte-identical RNG streams either way.
    """

    def __init__(self, drop_probability: float = 0.0, duplicate_probability: float = 0.0) -> None:
        if not 0.0 <= duplicate_probability < 1.0:
            raise ValueError("duplicate_probability must be in [0, 1)")
        self.duplicate_probability = duplicate_probability
        self._severed: Set[Tuple[int, int]] = set()
        self._partitions: list[FrozenSet[int]] = []
        self.lossy = False
        self.drop_probability = drop_probability

    @property
    def drop_probability(self) -> float:
        return self._drop_probability

    @drop_probability.setter
    def drop_probability(self, value: float) -> None:
        if not 0.0 <= value < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        self._drop_probability = value
        self._refresh_lossy()

    def _refresh_lossy(self) -> None:
        self.lossy = bool(self._drop_probability or self._severed or self._partitions)

    # ------------------------------------------------------------- links
    def sever_link(self, a: int, b: int) -> None:
        """Block traffic in both directions between nodes ``a`` and ``b``."""
        self._severed.add((a, b))
        self._severed.add((b, a))
        self.lossy = True

    def heal_link(self, a: int, b: int) -> None:
        self._severed.discard((a, b))
        self._severed.discard((b, a))
        self._refresh_lossy()

    def link_severed(self, a: int, b: int) -> bool:
        return (a, b) in self._severed

    # ------------------------------------------------------------- partitions
    def partition(self, *groups: Iterable[int]) -> None:
        """Split the cluster so only nodes within the same group can talk.

        Nodes not mentioned in any group remain able to talk to everyone
        (matching the common "isolate these nodes" experiment shape).
        """
        self._partitions = [frozenset(group) for group in groups]
        self._refresh_lossy()

    def heal_partition(self) -> None:
        self._partitions = []
        self._refresh_lossy()

    def partitioned(self, src: int, dst: int) -> bool:
        if not self._partitions:
            return False
        src_group = next((g for g in self._partitions if src in g), None)
        dst_group = next((g for g in self._partitions if dst in g), None)
        if src_group is None or dst_group is None:
            return False
        return src_group is not dst_group

    # ------------------------------------------------------------- verdict
    def should_drop(self, src: int, dst: int, rng: random.Random) -> bool:
        """Decide whether a message from src to dst is lost.

        Links and partitions are between machines: both ends fold onto
        their machine (modulo ``SHARD_ENDPOINT_STRIDE``) first, so severing
        or partitioning a machine affects every shard replica it hosts.
        """
        src %= SHARD_ENDPOINT_STRIDE
        dst %= SHARD_ENDPOINT_STRIDE
        if self.link_severed(src, dst):
            return True
        if self.partitioned(src, dst):
            return True
        if self.drop_probability > 0.0 and rng.random() < self.drop_probability:
            return True
        return False

    def should_duplicate(self, src: int, dst: int, rng: random.Random) -> bool:
        """Decide whether a delivered message is also delivered a second time.

        Models retransmission storms: the duplicate is an extra copy of the
        same message, scheduled with its own latency draw.  Only consulted
        (and only consuming randomness) when a duplicate storm is active, so
        runs without duplication keep byte-identical RNG streams.
        """
        if self.duplicate_probability <= 0.0:
            return False
        return rng.random() < self.duplicate_probability
