"""The knob x protocol matrix, driven by the resolver's own table.

Every cell of ``KNOB_TABLE`` has exactly two legal outcomes: the value
reaches the replica, or the build raises ``ConfigurationError``.  A knob
that is accepted and then ignored is the bug this file exists to prevent --
it is how ``protocol="pigpaxos"`` used to drop a plain ``ProtocolConfig``
(``heartbeat_interval``, ``batch_max_commands``, ...) on the floor and how
EPaxos used to swallow ``pipeline_depth``.  The cells also subsume the
rejection tests that used to be scattered over test_cluster.py (EPaxos vs
leader-election knobs), test_epaxos_recovery.py (Paxos family vs
``recovery_timeout``) and test_overlay.py (overlay kind per protocol).
"""

from __future__ import annotations

from dataclasses import fields, replace
from operator import attrgetter

import pytest

from repro.cluster.builder import build_cluster
from repro.epaxos.replica import EPaxosReplica
from repro.errors import ConfigurationError
from repro.overlay import DirectFanout, RelayFanout, ThriftyFanout
from repro.overlay.config import FIELDS_READ, OVERLAY_KINDS, OverlayConfig, build_overlay
from repro.paxos.replica import MultiPaxosReplica
from repro.protocol.config import ProtocolConfig
from repro.protocol.resolver import KNOB_TABLE, PRESETS, PROTOCOLS, RELAY_KEYS, resolve_config
from repro.scenarios import get_scenario, run_scenario

#: One valid non-default value per knob.
NON_DEFAULT = {
    "heartbeat_interval": 0.02,
    "election_timeout_min": 0.3,
    "election_timeout_max": 0.9,
    "phase1_timeout": 0.3,
    "fill_gap_timeout": 0.2,
    "initial_leader": 1,
    "session_window": 4,
    "recovery_timeout": 0.3,
    "leader_retry_timeout": 0.3,
    "overlay": OverlayConfig(kind="relay", num_groups=2),
    "batch_max_commands": 4,
    "batch_max_delay": 0.01,
    "pipeline_depth": 2,
}
#: Knobs ProtocolConfig only validates next to another (universally honoured) one.
COMPANIONS = {
    "batch_max_delay": {"batch_max_commands": 4},
    "pipeline_depth": {"batch_max_commands": 4},
}
#: Where a replica keeps what it consumed from its config, as an attribute
#: path: EPaxos copies its own knobs at construction, and every protocol
#: hands the session window to its store and the batching knobs to its
#: batcher.
CONSUMED = {
    **{(protocol, "session_window"): "store.window" for protocol in PROTOCOLS},
    ("epaxos", "recovery_timeout"): "_recovery_timeout",
    ("epaxos", "leader_retry_timeout"): "_leader_retry_timeout",
    **{(protocol, "batch_max_commands"): "_batcher.max_commands" for protocol in PROTOCOLS},
    **{(protocol, "batch_max_delay"): "_batcher.max_delay" for protocol in PROTOCOLS},
}


#: One valid non-default value per ``OverlayConfig`` field, and the
#: attribute of the built overlay that keeps it.
OVERLAY_NON_DEFAULT = {
    "num_groups": (2, "num_groups"),
    "use_region_groups": (True, "use_region_groups"),
    "relay_timeout": (0.02, "relay_timeout"),
    "group_response_threshold": (0.75, "response_threshold"),
    "relay_levels": (2, "levels"),
    "fixed_relays": (True, "fixed_relays"),
    "thrifty_fallback_timeout": (0.2, "fallback_timeout"),
    "commit_fallback_timeout": (0.2, "commit_fallback_timeout"),
}
OVERLAY_CELLS = [
    (kind, name) for kind in OVERLAY_KINDS for name in sorted(OVERLAY_NON_DEFAULT)
]


def _build(protocol, config=None, **kwargs):
    return build_cluster(
        protocol=protocol, num_nodes=3, num_clients=1, protocol_config=config, **kwargs
    )


def _replicas(cluster):
    return [node.replica for node in cluster.nodes.values()]


def test_table_covers_exactly_the_protocol_config_fields():
    assert set(KNOB_TABLE) == {f.name for f in fields(ProtocolConfig)}
    assert set(NON_DEFAULT) == set(KNOB_TABLE)
    assert set(PRESETS) == set(PROTOCOLS)
    for honoured_by in KNOB_TABLE.values():
        assert honoured_by and honoured_by <= set(PROTOCOLS)


@pytest.mark.parametrize("as_mapping", [False, True], ids=["dataclass", "mapping"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("knob", sorted(KNOB_TABLE))
def test_every_cell_is_honoured_or_rejected(knob, protocol, as_mapping):
    value = NON_DEFAULT[knob]
    values = {knob: value, **COMPANIONS.get(knob, {})}
    config = dict(values) if as_mapping else ProtocolConfig(**values)
    if protocol not in KNOB_TABLE[knob]:
        with pytest.raises(ConfigurationError, match=knob):
            _build(protocol, config)
        return
    for replica in _replicas(_build(protocol, config)):
        assert getattr(replica.config, knob) == value
        if knob == "overlay":
            assert isinstance(replica.overlay, RelayFanout)
            assert replica.overlay.num_groups == 2
        if (protocol, knob) in CONSUMED:
            assert attrgetter(CONSUMED[protocol, knob])(replica) == value


@pytest.mark.parametrize("value", [0, -0.1])
@pytest.mark.parametrize("knob", ["phase1_timeout", "fill_gap_timeout"])
def test_non_positive_paxos_timeouts_are_rejected(knob, value):
    # A zero timer re-arms itself at +0 before any reply can arrive, so the
    # run spins at one virtual instant and completes nothing.
    with pytest.raises(ConfigurationError, match=knob):
        ProtocolConfig(**{knob: value})


FLOAT_KNOBS = (
    "heartbeat_interval",
    "election_timeout_min",
    "election_timeout_max",
    "phase1_timeout",
    "fill_gap_timeout",
    "recovery_timeout",
    "leader_retry_timeout",
    "batch_max_delay",
)


@pytest.mark.parametrize("knob", FLOAT_KNOBS)
def test_nan_float_knobs_are_rejected(knob):
    # NaN fails every comparison, so only a `not x > 0` check rejects it.
    overrides = {knob: float("nan")}
    if knob == "batch_max_delay":
        overrides["batch_max_commands"] = 4  # a delay alone is rejected anyway
    match = "election timeout" if knob.startswith("election") else knob
    with pytest.raises(ConfigurationError, match=match):
        ProtocolConfig(**overrides)


@pytest.mark.parametrize(
    "kind, name",
    [
        ("relay", "relay_timeout"),
        ("relay", "commit_fallback_timeout"),
        ("thrifty", "thrifty_fallback_timeout"),
    ],
)
def test_nan_overlay_timeouts_are_rejected(kind, name):
    with pytest.raises(ConfigurationError, match=f"{name} must be positive"):
        OverlayConfig(kind=kind, **{name: float("nan")})


def test_overlay_table_covers_exactly_the_overlay_config_fields():
    assert set(FIELDS_READ) == set(OVERLAY_KINDS)
    assert set(OVERLAY_NON_DEFAULT) == {f.name for f in fields(OverlayConfig)} - {"kind"}
    for read in FIELDS_READ.values():
        assert read <= set(OVERLAY_NON_DEFAULT)


@pytest.mark.parametrize("kind, name", OVERLAY_CELLS, ids=[f"{k}-{n}" for k, n in OVERLAY_CELLS])
def test_every_overlay_cell_is_honoured_or_rejected(kind, name):
    value, attribute = OVERLAY_NON_DEFAULT[name]
    if name not in FIELDS_READ[kind]:
        with pytest.raises(ConfigurationError, match=f"{kind!r} would silently ignore {name}"):
            OverlayConfig(kind=kind, **{name: value})
        # The scenario path: a mapping under "overlay", coerced by the resolver.
        with pytest.raises(ConfigurationError, match=f"{kind!r} would silently ignore {name}"):
            resolve_config("epaxos", {"overlay": {"kind": kind, name: value}})
        return
    overlay = build_overlay(OverlayConfig(kind=kind, **{name: value}), region_of={0: "a", 1: "b"})
    assert getattr(overlay, attribute) == value


class TestPresets:
    def test_pigpaxos_is_multipaxos_plus_relay_plus_retry(self):
        cluster = _build("pigpaxos")
        assert cluster.protocol == "pigpaxos"
        for replica in _replicas(cluster):
            assert type(replica) is MultiPaxosReplica
            assert replica.protocol_name == "pigpaxos"
            assert isinstance(replica.overlay, RelayFanout)
            assert replica.config.overlay == OverlayConfig(kind="relay")
            assert replica.config.leader_retry_timeout == 0.15

    def test_paxos_and_epaxos_default_to_direct_and_no_retry(self):
        for protocol, replica_class in (("paxos", MultiPaxosReplica), ("epaxos", EPaxosReplica)):
            for replica in _replicas(_build(protocol)):
                assert type(replica) is replica_class
                assert replica.protocol_name == protocol
                assert isinstance(replica.overlay, DirectFanout)
                assert replica.config.leader_retry_timeout is None

    @pytest.mark.parametrize("protocol", ["paxos", "epaxos"])
    @pytest.mark.parametrize(
        "kind, overlay_class",
        [("direct", DirectFanout), ("relay", RelayFanout), ("thrifty", ThriftyFanout)],
    )
    def test_unpinned_protocols_accept_every_overlay_kind(self, protocol, kind, overlay_class):
        for replica in _replicas(_build(protocol, {"overlay": kind})):
            assert isinstance(replica.overlay, overlay_class)

    @pytest.mark.parametrize("kind", ["direct", "thrifty"])
    def test_pigpaxos_pins_the_relay_overlay(self, kind):
        with pytest.raises(ConfigurationError, match="relay overlay"):
            _build("pigpaxos", {"overlay": kind})
        with pytest.raises(ConfigurationError, match="relay overlay"):
            _build("pigpaxos", ProtocolConfig(overlay=kind))

    def test_flat_relay_keys_are_the_pigpaxos_surface_only(self):
        flat = {
            "num_relay_groups": 2,
            "relay_timeout": 0.02,
            "group_response_threshold": 0.75,
            "relay_levels": 2,
            "use_region_groups": False,
            "fixed_relays": True,
        }
        assert set(flat) == set(RELAY_KEYS)
        assert resolve_config("pigpaxos", flat).overlay == OverlayConfig(
            kind="relay",
            num_groups=2,
            relay_timeout=0.02,
            group_response_threshold=0.75,
            relay_levels=2,
            fixed_relays=True,
        )
        for protocol in ("paxos", "epaxos"):
            with pytest.raises(ConfigurationError, match="relay_timeout"):
                resolve_config(protocol, {"relay_timeout": 0.02})

    def test_scenario_level_relay_choices_win_over_flat_keys(self):
        config = resolve_config("pigpaxos", {"num_relay_groups": 4}, relay_groups=2)
        assert config.overlay.num_groups == 2

    @pytest.mark.parametrize("protocol", ["paxos", "epaxos"])
    @pytest.mark.parametrize(
        "kwargs", [{"relay_groups": 3}, {"use_region_groups": True}], ids=lambda k: next(iter(k))
    )
    def test_scenario_level_relay_choices_are_the_pigpaxos_surface_only(self, protocol, kwargs):
        # Used to be dropped without a word on paxos/epaxos.
        (knob,) = kwargs
        with pytest.raises(ConfigurationError, match=f"{knob} is honoured by .* only"):
            resolve_config(protocol, **kwargs)
        with pytest.raises(ConfigurationError, match=knob):
            _build(protocol, **kwargs)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_leader_retry_must_outlast_the_relay_timeout(self, protocol):
        overlay = OverlayConfig(kind="relay", relay_timeout=0.2)
        with pytest.raises(ConfigurationError, match="relay_timeout"):
            resolve_config(protocol, ProtocolConfig(overlay=overlay, leader_retry_timeout=0.1))
        assert resolve_config(
            protocol, ProtocolConfig(overlay=overlay, leader_retry_timeout=0.3)
        ).leader_retry_timeout == 0.3

    def test_unknown_protocol_and_unknown_knob_are_rejected(self):
        with pytest.raises(ConfigurationError, match="raft"):
            resolve_config("raft")
        with pytest.raises(ConfigurationError, match="group_seed_rotation"):
            resolve_config("pigpaxos", {"group_seed_rotation": False})

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_resolving_is_idempotent(self, protocol):
        once = resolve_config(protocol, {"session_window": 4})
        assert resolve_config(protocol, once) == once


class TestResolverNeverMutatesItsInput:
    def test_one_config_object_builds_two_different_clusters(self):
        """Regression: the builder used to write relay_groups into the caller's config."""
        config = ProtocolConfig(heartbeat_interval=0.02)
        pristine = replace(config)
        two = _build("pigpaxos", config, relay_groups=2)
        three = _build("pigpaxos", config, relay_groups=3)
        assert config == pristine and config.overlay is None
        assert {r.config.overlay.num_groups for r in _replicas(two)} == {2}
        assert {r.config.overlay.num_groups for r in _replicas(three)} == {3}
        assert {r.overlay.num_groups for r in _replicas(three)} == {3}

    def test_mapping_input_is_left_alone(self):
        overrides = {"relay_timeout": 0.02, "overlay": {"kind": "relay", "num_groups": 4}}
        snapshot = {"relay_timeout": 0.02, "overlay": {"kind": "relay", "num_groups": 4}}
        config = resolve_config("pigpaxos", overrides, use_region_groups=True)
        assert overrides == snapshot
        assert config.overlay == OverlayConfig(
            kind="relay", num_groups=4, relay_timeout=0.02, use_region_groups=True
        )


@pytest.mark.parametrize(
    "name, paxos_overrides",
    [
        # Lossy links: relay timeouts and Fig. 5b leader round retries fire.
        (
            "pig-relay-timeout-storm",
            {"overlay": {"kind": "relay", "num_groups": 3, "relay_timeout": 0.02}},
        ),
        # Reshuffle events: the runner must find the leader's relay plan either way.
        (
            "pig-relay-churn",
            {"overlay": {"kind": "relay", "num_groups": 3, "group_response_threshold": 0.5}},
        ),
    ],
)
def test_the_pigpaxos_preset_is_nothing_more(name, paxos_overrides):
    """protocol="pigpaxos" == protocol="paxos" + relay overlay + retry 0.15."""
    preset = get_scenario(name)
    spelled_out = replace(
        preset,
        protocol="paxos",
        relay_groups=None,
        config_overrides={**paxos_overrides, "leader_retry_timeout": 0.15},
    )
    as_preset = run_scenario(preset)
    as_paxos = run_scenario(spelled_out)
    assert as_preset.ok and as_paxos.ok
    assert as_preset.fingerprint() == as_paxos.fingerprint()
    pig, paxos = as_preset.counters(), as_paxos.counters()
    for counter in ("relay_rounds", "relay_timeouts", "leader_round_retries", "group_reshuffles"):
        assert pig.get(f"pigpaxos.{counter}") == paxos.get(f"paxos.{counter}")
