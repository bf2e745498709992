"""Quorum system definitions.

A quorum system answers two questions for a cluster of ``n`` voters:

* how many phase-1 (leader election / prepare) votes are needed, and
* how many phase-2 (accept) votes are needed.

Classical Paxos uses majorities for both; EPaxos' fast path uses a
super-majority of size ``f + floor((f+1)/2)`` out of ``n = 2f + 1``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import QuorumError


class QuorumSystem(ABC):
    """Sizes of the vote sets required by each protocol phase."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise QuorumError(f"cluster size must be >= 1, got {n}")
        self.n = n

    @property
    @abstractmethod
    def phase1_size(self) -> int:
        """Votes required to win phase-1 (prepare / leader election)."""

    @property
    @abstractmethod
    def phase2_size(self) -> int:
        """Votes required to win phase-2 (accept)."""

    def phase1_satisfied(self, votes: int) -> bool:
        return votes >= self.phase1_size

    def phase2_satisfied(self, votes: int) -> bool:
        return votes >= self.phase2_size

    @property
    def max_failures(self) -> int:
        """Crash failures tolerated while both phases can still complete."""
        return self.n - max(self.phase1_size, self.phase2_size)

    def describe(self) -> str:
        return f"{type(self).__name__}(n={self.n}, q1={self.phase1_size}, q2={self.phase2_size})"


class MajorityQuorum(QuorumSystem):
    """Classical Paxos majorities: q1 = q2 = floor(n/2) + 1."""

    @property
    def phase1_size(self) -> int:
        return self.n // 2 + 1

    @property
    def phase2_size(self) -> int:
        return self.n // 2 + 1


class FastQuorum(QuorumSystem):
    """EPaxos-style quorums for a cluster of n nodes tolerating f = (n-1)//2.

    The fast-path quorum is ``f + floor((f+1)/2)`` (including the command
    leader), floored at a majority; the slow path (explicit accept round)
    uses a simple majority.

    The paper's formula assumes ``n = 2f + 1``.  For even n it can drop
    below a majority (n=4 gives 2, n=6 gives 3), and two fast quorums then
    no longer intersect -- two command leaders can fast-commit conflicting
    commands with disjoint vote sets, neither learning the other's
    dependency, so replicas execute the conflict in different orders.
    Dependency safety requires every pair of fast quorums to share at
    least one replica (2q > n), which a majority floor guarantees while
    leaving every odd-n quorum exactly at the paper's size.
    """

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._f = (n - 1) // 2

    @property
    def f(self) -> int:
        return self._f

    @property
    def fast_path_size(self) -> int:
        return max(self._f + (self._f + 1) // 2, self.n // 2 + 1)

    @property
    def phase1_size(self) -> int:
        # EPaxos has no leader election; recovery uses a majority.
        return self.n // 2 + 1

    @property
    def phase2_size(self) -> int:
        return self.n // 2 + 1

    def fast_path_satisfied(self, votes: int) -> bool:
        return votes >= max(self.fast_path_size, 1)
