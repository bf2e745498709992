"""Key-selection distributions.

Uniform selection over 1000 keys is what every experiment in the paper uses;
Zipfian selection is provided for the extension benchmarks (skewed workloads
change the EPaxos conflict rate dramatically, which is a natural ablation of
the paper's comparison).
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

from repro.errors import WorkloadError


class KeyDistribution(ABC):
    """Chooses a key index in ``[0, num_keys)`` per operation."""

    def __init__(self, num_keys: int) -> None:
        if num_keys < 1:
            raise WorkloadError("num_keys must be >= 1")
        self.num_keys = num_keys

    @abstractmethod
    def next_index(self, rng: random.Random) -> int:
        """Return the next key index."""


class UniformKeys(KeyDistribution):
    """Every key equally likely (the paper's workload)."""

    def next_index(self, rng: random.Random) -> int:
        return rng.randrange(self.num_keys)


class ZipfianKeys(KeyDistribution):
    """Zipfian selection using the classic rejection-free inverse-CDF method.

    The CDF is precomputed once; draws are a binary search, so per-operation
    cost stays O(log num_keys) even for large key spaces.
    """

    def __init__(self, num_keys: int, theta: float = 0.99) -> None:
        super().__init__(num_keys)
        if not theta > 0:
            raise WorkloadError("theta must be positive")
        self.theta = theta
        weights = [1.0 / math.pow(rank + 1, theta) for rank in range(num_keys)]
        total = sum(weights)
        cumulative = 0.0
        self._cdf = []
        for weight in weights:
            cumulative += weight / total
            self._cdf.append(cumulative)
        self._cdf[-1] = 1.0

    def next_index(self, rng: random.Random) -> int:
        target = rng.random()
        low, high = 0, self.num_keys - 1
        while low < high:
            mid = (low + high) // 2
            if self._cdf[mid] < target:
                low = mid + 1
            else:
                high = mid
        return low


def make_distribution(name: str, num_keys: int, zipf_theta: float = 0.99) -> KeyDistribution:
    """Factory used by the command generator."""
    if name == "uniform":
        return UniformKeys(num_keys)
    if name == "zipfian":
        return ZipfianKeys(num_keys, theta=zipf_theta)
    raise WorkloadError(f"unknown distribution {name!r}")
