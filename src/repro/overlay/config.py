"""Declarative configuration for the fan-out overlay.

``OverlayConfig`` is the serialisable description of *which* fan-out
strategy a replica should use and how it is tuned; ``build_overlay`` turns
it into a fresh :class:`~repro.overlay.base.FanoutOverlay` instance (one per
replica -- overlays hold per-node state and must never be shared).

It rides into the stack through ``ProtocolConfig.overlay`` -- for a
scenario, the ``"overlay"`` key of its ``config_overrides``::

    Scenario(
        name="epaxos-relay",
        protocol="epaxos",
        config_overrides={"overlay": {"kind": "relay", "num_groups": 3}},
        ...
    )

Mappings coerce to ``OverlayConfig`` automatically, so scenario specs stay
plain data.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, FrozenSet, Mapping, Optional, Union

from repro.errors import ConfigurationError
from repro.overlay.direct import DirectFanout
from repro.overlay.relay import RelayFanout
from repro.overlay.thrifty import ThriftyFanout

#: Every fan-out strategy the factory knows how to build.
OVERLAY_KINDS = ("direct", "relay", "thrifty")


@dataclass(frozen=True)
class OverlayConfig:
    """Tuning knobs for one replica's fan-out overlay.

    A field the chosen kind does not read (:data:`FIELDS_READ`) must stay at
    its default: setting it raises ``ConfigurationError`` instead of being
    silently dropped by :func:`build_overlay`.

    Attributes:
        kind: ``"direct"`` (all-to-all broadcast), ``"relay"`` (PigPaxos
            relay trees) or ``"thrifty"`` (quorum-subset with fallback).
        num_groups: Relay-group count (relay overlay only).
        use_region_groups: Align relay groups with topology regions when a
            region map is available (the WAN deployment of Figure 9).
        relay_timeout: How long a relay waits for its subtree before
            flushing a partial aggregate.
        group_response_threshold: Optional fraction of a group a relay
            waits for before flushing early (Section 4.2); ``None`` waits
            for the whole group.
        relay_levels: Relay-tree depth (1 = the paper's single layer).
        fixed_relays: Disable per-round relay rotation (ablation).
        thrifty_fallback_timeout: How long a thrifty round may stay
            incomplete before the message is re-sent to every peer.
        commit_fallback_timeout: Relay-overlay commit durability -- when
            set, fire-and-forget fan-outs (commit notifications) demand a
            lightweight ack from each first-hop relay, and a subtree whose
            relay stays silent past this deadline is re-sent directly so a
            relay crash can no longer lose the commit for its whole group.
            At ``relay_levels > 1`` interior relays run the same protocol
            towards their own sub-relays, so a deep sub-relay crash heals
            inside the tree (per-depth ``relay.depth.<d>.*`` counters).
            ``None`` (the default) keeps the historical ack-free behaviour.
    """

    kind: str = "direct"
    num_groups: int = 3
    use_region_groups: bool = False
    relay_timeout: float = 0.05
    group_response_threshold: Optional[float] = None
    relay_levels: int = 1
    fixed_relays: bool = False
    thrifty_fallback_timeout: float = 0.1
    commit_fallback_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in OVERLAY_KINDS:
            raise ConfigurationError(
                f"unknown overlay kind {self.kind!r}; expected one of {OVERLAY_KINDS}"
            )
        if self.num_groups < 1:
            raise ConfigurationError("num_groups must be >= 1")
        # `not x > 0`, not `x <= 0`: NaN fails every comparison.
        if not self.relay_timeout > 0:
            raise ConfigurationError("relay_timeout must be positive")
        if self.relay_levels < 1:
            raise ConfigurationError("relay_levels must be >= 1")
        if self.group_response_threshold is not None and not 0.0 < self.group_response_threshold <= 1.0:
            raise ConfigurationError("group_response_threshold must be in (0, 1]")
        if not self.thrifty_fallback_timeout > 0:
            raise ConfigurationError("thrifty_fallback_timeout must be positive")
        if self.commit_fallback_timeout is not None and not self.commit_fallback_timeout > 0:
            raise ConfigurationError(
                "commit_fallback_timeout must be positive (or None to disable)"
            )
        read = FIELDS_READ[self.kind]
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "kind" and f.name not in read and value != f.default:
                raise ConfigurationError(
                    f"overlay kind {self.kind!r} would silently ignore {f.name}={value!r}"
                )

    @classmethod
    def coerce(cls, value: Union["OverlayConfig", str, Mapping, None]) -> Optional["OverlayConfig"]:
        """Accept an OverlayConfig, a kind string, or a mapping of fields."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(kind=value)
        if isinstance(value, Mapping):
            return cls(**dict(value))
        raise ConfigurationError(
            f"cannot interpret {value!r} as an overlay configuration; "
            "pass an OverlayConfig, a kind string, or a mapping"
        )


#: kind -> the ``OverlayConfig`` fields :func:`build_overlay` passes to it.
FIELDS_READ: Dict[str, FrozenSet[str]] = {
    "direct": frozenset(),
    "relay": frozenset({
        "num_groups", "use_region_groups", "relay_timeout", "group_response_threshold",
        "relay_levels", "fixed_relays", "commit_fallback_timeout",
    }),
    "thrifty": frozenset({"thrifty_fallback_timeout"}),
}


def build_overlay(
    config: Optional[OverlayConfig],
    region_of: Optional[Dict[int, str]] = None,
    zone_of: Optional[Dict[int, str]] = None,
):
    """Instantiate a fresh overlay for one replica from its config.

    ``None`` (and kind ``"direct"``) build the status-quo broadcast;
    ``region_of``/``zone_of`` feed the relay overlay's topology-aligned
    grouping (region groups, and zone sub-trees at ``relay_levels > 1``)
    and are ignored by the other kinds.
    """
    if config is None or config.kind == "direct":
        return DirectFanout()
    if config.kind == "relay":
        return RelayFanout(
            num_groups=config.num_groups,
            use_region_groups=config.use_region_groups,
            region_of=region_of,
            zone_of=zone_of,
            relay_timeout=config.relay_timeout,
            response_threshold=config.group_response_threshold,
            levels=config.relay_levels,
            fixed_relays=config.fixed_relays,
            commit_fallback_timeout=config.commit_fallback_timeout,
        )
    if config.kind == "thrifty":
        return ThriftyFanout(fallback_timeout=config.thrifty_fallback_timeout)
    raise ConfigurationError(f"unknown overlay kind {config.kind!r}")
