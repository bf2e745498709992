"""Quorum systems and vote tracking.

The paper relies on classical majority quorums and compares against EPaxos,
which uses fast (super-majority) quorums.  Both quorum systems are
implemented here, together with the per-ballot/per-slot vote trackers used by
the protocol replicas.
"""

from repro.quorum.systems import (
    QuorumSystem,
    MajorityQuorum,
    FastQuorum,
)
from repro.quorum.tracker import VoteTracker, BallotVoteTracker

__all__ = [
    "QuorumSystem",
    "MajorityQuorum",
    "FastQuorum",
    "VoteTracker",
    "BallotVoteTracker",
]
