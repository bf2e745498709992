"""Vote trackers used by leaders while collecting responses.

``VoteTracker`` counts acks from distinct voters for one decision (one
slot at one ballot).  ``BallotVoteTracker`` does the same for phase-1,
additionally remembering the highest previously-accepted command reported per
slot, which the new leader must re-propose (the "Ok, but" arrow in the
paper's Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.errors import QuorumError


class VoteTracker:
    """Counts positive votes from distinct voters."""

    def __init__(self, required: int) -> None:
        if required < 1:
            raise QuorumError("a quorum requires at least one vote")
        self.required = required
        self._acks: Set[int] = set()

    def ack(self, voter: int) -> bool:
        """Record a positive vote; returns True if the quorum is now satisfied."""
        self._acks.add(voter)
        # ``satisfied``'s test, inlined: the leader acks once per vote.
        return len(self._acks) >= self.required

    def ack_all(self, voters: Iterable[int]) -> bool:
        """Record several positive votes at once; True if the quorum is now satisfied.

        The relay root counts a whole aggregate's votes with one call, so
        the leader pays per aggregate instead of per vote.
        """
        self._acks.update(voters)
        return len(self._acks) >= self.required

    @property
    def satisfied(self) -> bool:
        return len(self._acks) >= self.required


@dataclass
class _SlotVote:
    ballot: Tuple[int, int]
    command: object


class BallotVoteTracker:
    """Phase-1 vote tracker that merges previously accepted commands."""

    def __init__(self, required: int) -> None:
        self._tracker = VoteTracker(required)
        self._accepted: Dict[int, _SlotVote] = {}

    def ack(
        self,
        voter: int,
        accepted: Optional[Dict[int, Tuple[Tuple[int, int], object]]] = None,
    ) -> bool:
        """Record a promise, merging the voter's previously accepted entries.

        ``accepted`` maps slot -> (ballot, command) as reported by the voter.
        For each slot we keep the command accepted at the highest ballot,
        which is what the new leader must re-propose.
        """
        if accepted:
            # lint: ok(no-unordered-iteration) keep-highest-ballot merge per slot; order-insensitive
            for slot, (ballot, command) in accepted.items():
                current = self._accepted.get(slot)
                if current is None or ballot > current.ballot:
                    self._accepted[slot] = _SlotVote(ballot=ballot, command=command)
        return self._tracker.ack(voter)

    @property
    def satisfied(self) -> bool:
        return self._tracker.satisfied

    def commands_to_repropose(self) -> Dict[int, object]:
        """Slot -> command that must be re-proposed by the new leader."""
        return {slot: vote.command for slot, vote in sorted(self._accepted.items())}
