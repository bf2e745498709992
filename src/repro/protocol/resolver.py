"""One way to build a replica: the knob table, the presets, the resolver.

:func:`resolve_config` is the only place a knob is resolved and
:func:`build_replica` the only place a replica is instantiated;
``build_cluster`` (and through it ``ScenarioRunner``) goes through them::

    config = resolve_config("pigpaxos", {"num_relay_groups": 2, "relay_timeout": 0.02})
    replica = build_replica("pigpaxos", config)
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Dict, FrozenSet, Mapping, Optional, Union

from repro.errors import ConfigurationError
from repro.overlay.config import OverlayConfig, build_overlay
from repro.protocol.base import Replica
from repro.protocol.config import ProtocolConfig

PROTOCOLS = ("paxos", "pigpaxos", "epaxos")

_PAXOS_FAMILY = frozenset({"paxos", "pigpaxos"})
_EVERY = frozenset(PROTOCOLS)

#: knob -> the protocols that honour it.  Every other protocol rejects it
#: (any value but the class default raises ``ConfigurationError``); none
#: silently ignores it.  scripts/check_docs.py holds the table in
#: docs/ARCHITECTURE.md to this one.
KNOB_TABLE: Dict[str, FrozenSet[str]] = {
    "heartbeat_interval": _PAXOS_FAMILY,
    "election_timeout_min": _PAXOS_FAMILY,
    "election_timeout_max": _PAXOS_FAMILY,
    "phase1_timeout": _PAXOS_FAMILY,
    "fill_gap_timeout": _PAXOS_FAMILY,
    "initial_leader": _PAXOS_FAMILY,
    "session_window": _EVERY,
    "recovery_timeout": frozenset({"epaxos"}),
    "leader_retry_timeout": _EVERY,
    "overlay": _EVERY,
    "batch_max_commands": _EVERY,
    "batch_max_delay": _EVERY,
    "pipeline_depth": _PAXOS_FAMILY,
}

#: protocol -> the knob values its name stands for, applied wherever the
#: caller left the knob at its class default.  ``"pigpaxos"`` is Multi-Paxos
#: + the relay overlay + the Figure 5b leader retry and nothing more: the
#: paper changes only the message-passing layer.  A preset that names an
#: overlay pins its kind and takes its fields as flat keys (:data:`RELAY_KEYS`).
PRESETS: Dict[str, Dict[str, object]] = {
    "paxos": {},
    "pigpaxos": {"overlay": OverlayConfig(kind="relay"), "leader_retry_timeout": 0.15},
    "epaxos": {},
}

#: Flat relay keys of the pigpaxos config surface -> ``OverlayConfig`` field.
#: Renamed here, validated by ``OverlayConfig`` alone.
RELAY_KEYS: Dict[str, str] = {
    "num_relay_groups": "num_groups",
    "relay_timeout": "relay_timeout",
    "relay_timeout_decay": "relay_timeout_decay",
    "group_response_threshold": "group_response_threshold",
    "relay_levels": "relay_levels",
    "use_region_groups": "use_region_groups",
    "fixed_relays": "fixed_relays",
}

#: What callers may pass as a protocol config: the dataclass, a mapping of
#: its fields (a scenario's ``config_overrides``), or nothing.
ConfigLike = Union[ProtocolConfig, Mapping[str, object], None]

#: Class default of every knob: what "the caller left it unset" means.
_DEFAULTS: Dict[str, object] = {f.name: f.default for f in fields(ProtocolConfig)}


def resolve_config(
    protocol: str,
    config: ConfigLike = None,
    *,
    relay_groups: Optional[int] = None,
    use_region_groups: bool = False,
) -> ProtocolConfig:
    """Resolve every knob for ``protocol`` into a fresh ``ProtocolConfig``.

    A mapping ``config`` may also carry the :data:`RELAY_KEYS` under the
    pigpaxos preset.  ``config.overlay`` names the overlay and wins over
    the preset's.  ``relay_groups``/``use_region_groups`` are the
    ``Scenario``-level spellings of the ``num_relay_groups``/
    ``use_region_groups`` relay keys, win over them, and like them are
    rejected by every protocol but the pigpaxos preset.  The input is never
    mutated, and resolving a resolved config returns an equal one.
    """
    if protocol not in PRESETS:
        raise ConfigurationError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    preset = PRESETS[protocol]
    # One representation from here on: knob -> value, defaults filled in.
    given = vars(config) if isinstance(config, ProtocolConfig) else config or {}
    values = {**_DEFAULTS, **given}
    relay: Dict[str, object] = {}
    if "overlay" in preset:
        relay = {RELAY_KEYS[key]: values.pop(key) for key in RELAY_KEYS if key in values}
        if relay_groups is not None:
            relay["num_groups"] = relay_groups
        if use_region_groups:
            relay["use_region_groups"] = True
    elif relay_groups is not None or use_region_groups:
        knob = "relay_groups" if relay_groups is not None else "use_region_groups"
        raise ConfigurationError(
            f"{knob} is honoured by {sorted(p for p in PRESETS if 'overlay' in PRESETS[p])} "
            f"only; {protocol} would silently ignore it"
        )
    unknown = set(values) - set(KNOB_TABLE)
    if unknown:
        raise ConfigurationError(f"{protocol} has no config knob(s) {sorted(unknown)}")

    for knob in sorted(KNOB_TABLE):
        honoured_by = KNOB_TABLE[knob]
        if protocol not in honoured_by and values[knob] != _DEFAULTS[knob]:
            raise ConfigurationError(
                f"{knob} is honoured by {sorted(honoured_by)} only; "
                f"{protocol} would silently ignore it"
            )
    for knob in sorted(preset):
        if values[knob] == _DEFAULTS[knob]:
            values[knob] = preset[knob]

    chosen = OverlayConfig.coerce(values["overlay"])
    if "overlay" in preset and chosen.kind != preset["overlay"].kind:
        raise ConfigurationError(
            f"{protocol} is the {preset['overlay'].kind} overlay; "
            f"it cannot run over overlay kind {chosen.kind!r}"
        )
    values["overlay"] = replace(chosen, **relay) if relay else chosen
    resolved = ProtocolConfig(**values)
    retry = resolved.leader_retry_timeout
    if (
        retry is not None
        and chosen is not None
        and chosen.kind == "relay"
        and retry <= resolved.overlay.relay_timeout
    ):
        raise ConfigurationError(
            "leader_retry_timeout must exceed relay_timeout, otherwise the leader "
            "retries before relays have had a chance to flush"
        )
    return resolved


def build_replica(
    protocol: str,
    config: ProtocolConfig,
    region_of: Optional[Dict[int, str]] = None,
    zone_of: Optional[Dict[int, str]] = None,
    initial_leader: Optional[int] = None,
) -> Replica:
    """Instantiate one replica from a config :func:`resolve_config` returned.

    ``region_of``/``zone_of`` feed topology-aligned relay grouping;
    ``initial_leader`` is the sharding hook (each group's round-robin
    leader endpoint) and is dropped by protocols that reject the knob.
    """
    if initial_leader is not None and protocol in KNOB_TABLE["initial_leader"]:
        config = replace(config, initial_leader=initial_leader)
    overlay = build_overlay(config.overlay, region_of=region_of, zone_of=zone_of)
    # Imported here so a run loads only the protocol it builds.
    if protocol in _PAXOS_FAMILY:
        from repro.paxos.replica import MultiPaxosReplica as replica_class
    else:
        from repro.epaxos.replica import EPaxosReplica as replica_class
    replica = replica_class(config=config, overlay=overlay)
    # Counters stay under "<protocol>." for presets too ("pigpaxos.relay_rounds").
    replica.protocol_name = protocol
    return replica
