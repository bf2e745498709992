"""Analytical models from the paper's Section 6.

* :mod:`repro.analysis.model` -- the message-load formulas (Ml = 2r + 2,
  Mf = 2(N - r - 1)/(N - 1) + 2), the leader-overhead ratio and the
  generators for Tables 1 and 2.
* :mod:`repro.analysis.wan` -- cross-region message counts for the WAN
  traffic argument of Section 6.4.
"""

from repro.analysis.model import (
    messages_at_leader,
    messages_at_follower,
    paxos_messages_at_leader,
    paxos_messages_at_follower,
    leader_overhead,
    message_load_table,
    follower_load_limit,
)
from repro.analysis.wan import wan_messages_per_write, wan_traffic_table

__all__ = [
    "messages_at_leader",
    "messages_at_follower",
    "paxos_messages_at_leader",
    "paxos_messages_at_follower",
    "leader_overhead",
    "message_load_table",
    "follower_load_limit",
    "wan_messages_per_write",
    "wan_traffic_table",
]
