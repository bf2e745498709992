"""Pluggable fan-out overlays for wide-cast (one-to-many) messaging.

The source paper's core claim is that offloading a leader's communication
fan-out onto relay groups removes the consensus communication bottleneck.
This package turns that idea into a reusable subsystem: every replica owns a
:class:`~repro.overlay.base.FanoutOverlay` and routes its wide-cast messages
(Paxos P1a/P2a/heartbeats, EPaxos PreAccept/Accept/Commit) through it.

Three strategies ship:

* :class:`~repro.overlay.direct.DirectFanout` -- the status-quo all-to-all
  broadcast (the baseline every comparison measures against);
* :class:`~repro.overlay.relay.RelayFanout` -- PigPaxos-style relay trees
  (random relay per group per round, timed aggregation with late-response
  forwarding, dynamic reshuffling), now shared by PigPaxos and EPaxos;
* :class:`~repro.overlay.thrifty.ThriftyFanout` -- quorum-sized-subset
  sends with a full-broadcast fallback on timeout (thrifty EPaxos).

Quick start::

    from repro.scenarios import Scenario, run_scenario

    result = run_scenario(Scenario(
        name="epaxos-relay",
        protocol="epaxos",
        num_nodes=9,
        config_overrides={"overlay": {"kind": "relay", "num_groups": 3}},
        checks=("linearizability", "epaxos_invariants"),
    ))
    result.raise_on_violations()

A bare cluster names its overlay the same way:
``build_cluster("epaxos", protocol_config={"overlay": {"kind": "thrifty"}})``.
"""

from repro.overlay.base import FanoutOverlay, OverlayHost
from repro.overlay.config import OVERLAY_KINDS, OverlayConfig, build_overlay
from repro.overlay.direct import DirectFanout
from repro.overlay.groups import (
    HierarchicalGroupPlan,
    RelayGroupPlan,
    contiguous_groups,
    region_groups,
    round_robin_groups,
)
from repro.overlay.messages import (
    OverlayMessage,
    RelayAggregate,
    RelayRequest,
    RelaySubtree,
)
from repro.overlay.relay import RelayFanout
from repro.overlay.thrifty import ThriftyFanout

__all__ = [
    "OVERLAY_KINDS",
    "DirectFanout",
    "FanoutOverlay",
    "HierarchicalGroupPlan",
    "OverlayConfig",
    "OverlayHost",
    "OverlayMessage",
    "RelayAggregate",
    "RelayFanout",
    "RelayGroupPlan",
    "RelayRequest",
    "RelaySubtree",
    "ThriftyFanout",
    "build_overlay",
    "contiguous_groups",
    "region_groups",
    "round_robin_groups",
]
