"""Vote trackers used by leaders while collecting responses.

``VoteTracker`` counts acks/nacks from distinct voters for one decision
(one slot at one ballot).  ``BallotVoteTracker`` does the same for phase-1,
additionally remembering the highest previously-accepted command reported per
slot, which the new leader must re-propose (the "Ok, but" arrow in the
paper's Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.errors import QuorumError


class VoteTracker:
    """Counts positive/negative votes from distinct voters."""

    def __init__(self, required: int, voters: Optional[Set[int]] = None) -> None:
        if required < 1:
            raise QuorumError("a quorum requires at least one vote")
        self.required = required
        self._allowed = set(voters) if voters is not None else None
        self._acks: Set[int] = set()
        self._nacks: Set[int] = set()

    def ack(self, voter: int) -> bool:
        """Record a positive vote; returns True if the quorum is now satisfied."""
        if self._allowed is not None:
            self._validate(voter)
        if voter not in self._nacks:
            self._acks.add(voter)
        # ``satisfied``'s test, inlined: the leader acks once per vote.
        return len(self._acks) >= self.required

    def nack(self, voter: int) -> None:
        if self._allowed is not None:
            self._validate(voter)
        self._acks.discard(voter)
        self._nacks.add(voter)

    def _validate(self, voter: int) -> None:
        """Reject a voter outside the restricted voter set (restricted trackers only)."""
        if voter not in self._allowed:
            raise QuorumError(f"voter {voter} is not part of this quorum")

    @property
    def ack_count(self) -> int:
        return len(self._acks)

    @property
    def nack_count(self) -> int:
        return len(self._nacks)

    @property
    def satisfied(self) -> bool:
        return len(self._acks) >= self.required

    @property
    def rejected(self) -> bool:
        """True when enough voters nacked that the quorum can never be met."""
        if self._allowed is None:
            return False
        remaining = len(self._allowed) - len(self._nacks)
        return remaining < self.required

    def voters(self) -> Set[int]:
        return set(self._acks)


@dataclass
class _SlotVote:
    ballot: Tuple[int, int]
    command: object


class BallotVoteTracker:
    """Phase-1 vote tracker that merges previously accepted commands."""

    def __init__(self, required: int) -> None:
        self._tracker = VoteTracker(required)
        self._accepted: Dict[int, _SlotVote] = {}
        self._commit_uptos: Dict[int, int] = {}

    def ack(
        self,
        voter: int,
        accepted: Optional[Dict[int, Tuple[Tuple[int, int], object]]] = None,
        commit_upto: int = 0,
    ) -> bool:
        """Record a promise, merging the voter's previously accepted entries.

        ``accepted`` maps slot -> (ballot, command) as reported by the voter.
        For each slot we keep the command accepted at the highest ballot,
        which is what the new leader must re-propose.  ``commit_upto`` is the
        voter's committed frontier; the new leader must treat every slot up
        to the quorum's maximum as already decided.
        """
        if accepted:
            # lint: ok(no-unordered-iteration) keep-highest-ballot merge per slot; order-insensitive
            for slot, (ballot, command) in accepted.items():
                current = self._accepted.get(slot)
                if current is None or ballot > current.ballot:
                    self._accepted[slot] = _SlotVote(ballot=ballot, command=command)
        if commit_upto > self._commit_uptos.get(voter, -1):
            self._commit_uptos[voter] = commit_upto
        return self._tracker.ack(voter)

    def nack(self, voter: int) -> None:
        self._tracker.nack(voter)

    @property
    def satisfied(self) -> bool:
        return self._tracker.satisfied

    @property
    def ack_count(self) -> int:
        return self._tracker.ack_count

    def commands_to_repropose(self) -> Dict[int, object]:
        """Slot -> command that must be re-proposed by the new leader."""
        return {slot: vote.command for slot, vote in sorted(self._accepted.items())}

    def commit_reports(self) -> Dict[int, int]:
        """Voter -> committed frontier reported with that voter's promise."""
        return dict(self._commit_uptos)

    @property
    def max_commit_upto(self) -> int:
        """Highest committed frontier reported by any promise (0 if none)."""
        return max(self._commit_uptos.values(), default=0)
