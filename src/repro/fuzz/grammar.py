"""Grammar-driven random fault-schedule generation.

One fuzz seed deterministically expands into one complete
:class:`~repro.scenarios.spec.Scenario`: cluster shape (3-25 nodes, all
three protocols, LAN or the paper's three-region WAN), fan-out overlay,
workload mix, protocol knobs, and a timed fault schedule sampled from the
same grammar of events the hand-written library uses (crash/restart,
partition/heal, drop and duplicate storms, link severing, sluggish nodes,
relay reshuffles).  ``generate_scenario(seed) == generate_scenario(seed)``
bit-for-bit, and the scenario run itself is deterministic per seed, so
every fuzz finding is replayable from its integer seed alone.

The grammar is *stateful*: events are sampled against the schedule built so
far (only crashed nodes recover, storms toggle off only when on, at most a
minority is down at once unless the profile allows total loss), so
generated schedules are adversarial but structurally sensible rather than
rejection-sampled noise.

Example::

    from repro.fuzz import generate_scenario
    from repro.scenarios import run_scenario

    scenario = generate_scenario(seed=1234)
    result = run_scenario(scenario)
    result.raise_on_violations()
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.scenarios.library import EPAXOS_CHECK_NAMES
from repro.scenarios.spec import Scenario, ScenarioEvent
from repro.workload.spec import WorkloadSpec

#: Cluster sizes the shape sampler draws from -- small shapes repeated so
#: most runs stay cheap, with the paper-scale sizes kept in rotation.
CLUSTER_SHAPES = (3, 4, 5, 5, 5, 6, 7, 7, 9, 9, 12, 15, 19, 25)


@dataclass(frozen=True)
class FuzzProfile:
    """Knobs bounding what the grammar may generate.

    The default profile is the fleet workhorse: every protocol and overlay,
    up to eight timed events, one-to-two virtual seconds per run.  Narrower
    profiles aim the fuzzer (e.g. ``FuzzProfile(protocols=("epaxos",))``
    for mutation-fuzz runs re-finding known EPaxos bugs).
    """

    protocols: Tuple[str, ...] = ("paxos", "pigpaxos", "epaxos")
    min_events: int = 1
    max_events: int = 8
    durations: Tuple[float, ...] = (1.0, 1.5, 2.0)
    #: Probability a run uses the three-region WAN topology.
    wan_probability: float = 0.25
    #: Allow schedules that crash nodes (majority always stays up).
    allow_crashes: bool = True
    #: Upper bound on co-hosted consensus groups (1 disables the sharding
    #: dimension entirely -- e.g. for replaying pre-sharding findings).
    max_shards: int = 8
    #: Probability a LAN run redeploys onto a region/zone planet hierarchy
    #: (0 disables the dimension -- e.g. for replaying pre-hierarchy
    #: findings).  WAN runs never redeploy; the two topologies are
    #: mutually exclusive in the spec.
    hierarchy_probability: float = 0.15

    def __post_init__(self) -> None:
        if not self.protocols:
            raise ConfigurationError("profile needs at least one protocol")
        for protocol in self.protocols:
            if protocol not in ("paxos", "pigpaxos", "epaxos"):
                raise ConfigurationError(f"unknown protocol {protocol!r}")
        if self.min_events < 0 or self.max_events < self.min_events:
            raise ConfigurationError("need 0 <= min_events <= max_events")
        if not self.durations:
            raise ConfigurationError("profile needs at least one duration")
        if self.max_shards < 1:
            raise ConfigurationError("max_shards must be >= 1")
        if not 0.0 <= self.hierarchy_probability <= 1.0:
            raise ConfigurationError("hierarchy_probability must be in [0, 1]")


DEFAULT_PROFILE = FuzzProfile()


def generate_scenario(seed: int, profile: FuzzProfile = DEFAULT_PROFILE) -> Scenario:
    """Expand one fuzz seed into a complete, runnable scenario.

    The returned scenario's own ``seed`` equals the fuzz seed, so the
    simulation run is pinned by the same integer that pinned the grammar
    draws: ``python -m repro.fuzz --seed S`` reproduces both the schedule
    and the run.
    """
    rng = random.Random(seed)
    protocol = rng.choice(profile.protocols)
    num_nodes = rng.choice(CLUSTER_SHAPES)
    wan = num_nodes >= 3 and rng.random() < profile.wan_probability
    duration = rng.choice(profile.durations)
    num_clients = rng.randint(2, 6)
    workload = WorkloadSpec(
        num_keys=rng.choice((1, 2, 3, 5, 8, 25)),
        read_ratio=rng.choice((0.0, 0.25, 0.5, 0.8)),
        distribution=rng.choice(("uniform", "uniform", "zipfian")),
        unique_values=True,
    )

    relay_groups: Optional[int] = None
    use_region_groups = False
    config_overrides: Dict[str, object] = {}

    if protocol == "pigpaxos":
        if wan and rng.random() < 0.5:
            use_region_groups = True
        else:
            relay_groups = rng.randint(1, max(1, min(4, num_nodes - 1)))
        if rng.random() < 0.25:
            config_overrides["relay_timeout"] = rng.choice((0.02, 0.1))
        if rng.random() < 0.25:
            # Both flush early even on a relay with 2 or 3 children, where
            # any value above 1/2 or 2/3 rounds up to the whole group.
            config_overrides["group_response_threshold"] = rng.choice((0.5, 0.3))
    else:
        overlay = _sample_overlay(rng, protocol, num_nodes, wan)
        if overlay is not None:
            config_overrides["overlay"] = overlay

    if protocol == "epaxos":
        roll = rng.random()
        if roll < 0.15:
            # Degraded mode: recovery off, the historical behaviour.
            config_overrides["recovery_timeout"] = None
        elif roll < 0.4:
            config_overrides["recovery_timeout"] = rng.choice((0.15, 0.4))
        if rng.random() < 0.2:
            config_overrides["leader_retry_timeout"] = rng.choice((0.2, 0.35))
        if rng.random() < 0.15:
            config_overrides["session_window"] = rng.choice((2, 4))

    events = _generate_events(rng, profile, protocol, num_nodes, duration,
                              relayish=protocol == "pigpaxos"
                              or _overlay_kind(config_overrides) == "relay")

    checks: Tuple[str, ...] = ("linearizability", "log_invariants")
    if protocol == "epaxos":
        checks = EPAXOS_CHECK_NAMES

    client_timeout = rng.choice((0.3, 0.4, 0.5))
    # Sharding dimension -- drawn LAST so every pre-sharding fuzz seed
    # expands to the same shape and fault schedule it always did (adding a
    # draw earlier would reshuffle every subsequent choice and invalidate
    # all recorded findings).  Most runs stay single-group; sharded runs
    # sweep 2-8 co-hosted consensus groups, capped by the keyspace.
    shards = 1
    if profile.max_shards > 1 and rng.random() < 0.35:
        shards = min(rng.randint(2, profile.max_shards), workload.num_keys)

    # Batching dimension -- drawn last (after shards) for the same
    # stability reason: every pre-batching fuzz seed keeps its recorded
    # expansion of all earlier draws.  Paxos-family runs mix pipeline
    # bounds and optional delay flushes; EPaxos always gets a delay bound
    # (without one its batching degenerates to unbatched -- instances are
    # not a pipeline, so only time creates batching windows there).  Every
    # delay stays well under the smallest client_timeout above.
    if rng.random() < 0.3:
        config_overrides["batch_max_commands"] = rng.choice((2, 4, 8))
        if protocol == "epaxos":
            config_overrides["batch_max_delay"] = rng.choice((0.005, 0.02))
        else:
            if rng.random() < 0.6:
                config_overrides["pipeline_depth"] = rng.choice((1, 2, 4))
            if rng.random() < 0.4:
                config_overrides["batch_max_delay"] = rng.choice((0.005, 0.02))

    # Hierarchy dimension -- drawn last (after batching), again so every
    # earlier fuzz seed keeps its recorded expansion.  A LAN run sometimes
    # redeploys onto a region/zone planet topology (WAN runs never do: the
    # spec makes the two mutually exclusive), and half of those redeploys
    # also align the fan-out with the hierarchy -- zone-aware relay trees,
    # sometimes two levels deep with the hop-by-hop commit fallback on.
    hierarchy: Optional[Tuple[int, int]] = None
    if not wan and rng.random() < profile.hierarchy_probability:
        hierarchy = (min(rng.choice((2, 3)), num_nodes), rng.choice((2, 3)))
        if protocol != "paxos" and rng.random() < 0.5:
            relay_levels = rng.choice((1, 2))
            if protocol == "pigpaxos":
                relay_groups = None
                use_region_groups = True
                config_overrides["relay_levels"] = relay_levels
            else:
                overlay = {"kind": "relay", "use_region_groups": True,
                           "relay_levels": relay_levels}
                if rng.random() < 0.5:
                    overlay["commit_fallback_timeout"] = rng.choice((0.1, 0.25))
                if rng.random() < 0.3:
                    overlay["fixed_relays"] = True
                config_overrides["overlay"] = overlay

    return Scenario(
        name=f"fuzz-{seed}",
        protocol=protocol,
        num_nodes=num_nodes,
        num_clients=num_clients,
        duration=duration,
        seed=seed,
        relay_groups=relay_groups,
        wan=wan,
        hierarchy=hierarchy,
        use_region_groups=use_region_groups,
        workload=workload,
        client_timeout=client_timeout,
        shards=shards,
        events=events,
        config_overrides=config_overrides or None,
        checks=checks,
        description=f"Grammar-fuzzed fault schedule (fuzz seed {seed}).",
    )


def _overlay_kind(config_overrides: Dict[str, object]) -> Optional[str]:
    overlay = config_overrides.get("overlay")
    if isinstance(overlay, dict):
        return str(overlay.get("kind", "direct"))
    return None


def _sample_overlay(
    rng: random.Random, protocol: str, num_nodes: int, wan: bool
) -> Optional[Dict[str, object]]:
    """Overlay config dict for paxos/epaxos (pigpaxos IS the relay overlay)."""
    kinds = ["direct", "thrifty"]
    if protocol == "epaxos":
        kinds.append("relay")
    kind = rng.choice(kinds)
    if kind == "direct":
        # Leave the default in place half the time so the "no overlay
        # config at all" path stays fuzzed too.
        return {"kind": "direct"} if rng.random() < 0.5 else None
    if kind == "thrifty":
        return {"kind": "thrifty",
                "thrifty_fallback_timeout": rng.choice((0.08, 0.15))}
    overlay: Dict[str, object] = {"kind": "relay"}
    if wan and rng.random() < 0.7:
        overlay["use_region_groups"] = True
    else:
        overlay["num_groups"] = rng.randint(2, max(2, min(4, num_nodes - 1)))
    if rng.random() < 0.3:
        overlay["relay_timeout"] = rng.choice((0.02, 0.1))
    return overlay


def _generate_events(
    rng: random.Random,
    profile: FuzzProfile,
    protocol: str,
    num_nodes: int,
    duration: float,
    relayish: bool,
) -> Tuple[ScenarioEvent, ...]:
    """Sample a structurally sensible timed fault schedule.

    Walks sampled fire times in order, choosing each action from the set
    valid in the schedule's current state (tracked crash set, partition and
    storm flags), so e.g. ``recover`` only ever names a crashed node and a
    majority stays up at all times.
    """
    count = rng.randint(profile.min_events, profile.max_events)
    times = sorted(round(rng.uniform(0.1 * duration, 0.9 * duration), 3)
                   for _ in range(count))

    events: List[ScenarioEvent] = []
    crashed: List[int] = []         # sorted list, not a set: iteration order
    partitioned = False
    severed: List[Tuple[int, int]] = []
    drop_active = False
    dup_active = False
    majority = num_nodes // 2 + 1
    max_down = num_nodes - majority if profile.allow_crashes else 0

    for at in times:
        candidates: List[str] = ["sluggish", "set_drop", "duplicate_storm"]
        if len(crashed) < max_down:
            candidates += ["crash", "crash", "crash_leader"]
        if crashed:
            candidates += ["recover", "recover", "recover_all"]
        if not partitioned and max_down >= 1:
            candidates += ["partition", "partition"]
        if partitioned:
            candidates += ["heal_partition"] * 3
        if num_nodes >= 4 and len(severed) < 2:
            candidates.append("sever_link")
        if severed:
            candidates.append("heal_link")
        if relayish:
            candidates += ["reshuffle_relays", "reshuffle_relays"]

        action = rng.choice(candidates)
        if action == "crash":
            alive = [n for n in range(num_nodes) if n not in crashed]
            node = rng.choice(alive)
            crashed = sorted(crashed + [node])
            events.append(ScenarioEvent.crash(at, node=node))
        elif action == "crash_leader":
            # Dynamic target; conservatively counts against the crash
            # budget (the leader is alive by definition when it fires).
            crashed = sorted(crashed + [-1 - len(crashed)])
            events.append(ScenarioEvent.crash_leader(at))
        elif action == "recover":
            node = rng.choice(crashed)
            crashed = [n for n in crashed if n != node]
            if node >= 0:
                events.append(ScenarioEvent.recover(at, node=node))
            else:
                # A crash_leader placeholder: only recover_all can name it.
                events.append(ScenarioEvent.recover_all(at))
                crashed = []
        elif action == "recover_all":
            crashed = []
            events.append(ScenarioEvent.recover_all(at))
        elif action == "partition":
            minority_size = rng.randint(1, max_down)
            minority = sorted(rng.sample(range(num_nodes), minority_size))
            rest = [n for n in range(num_nodes) if n not in minority]
            events.append(ScenarioEvent.partition(at, rest, minority))
            partitioned = True
        elif action == "heal_partition":
            events.append(ScenarioEvent.heal_partition(at))
            partitioned = False
        elif action == "sever_link":
            a, b = rng.sample(range(num_nodes), 2)
            severed.append((a, b))
            events.append(ScenarioEvent.sever_link(at, a, b))
        elif action == "heal_link":
            a, b = severed.pop(rng.randrange(len(severed)))
            events.append(ScenarioEvent.heal_link(at, a, b))
        elif action == "sluggish":
            node = rng.randrange(num_nodes)
            events.append(ScenarioEvent.sluggish(at, node=node,
                                                 factor=rng.choice((2.0, 5.0, 10.0))))
        elif action == "set_drop":
            probability = 0.0 if drop_active else rng.choice((0.05, 0.15, 0.25))
            drop_active = not drop_active
            events.append(ScenarioEvent.set_drop(at, probability=probability))
        elif action == "duplicate_storm":
            probability = 0.0 if dup_active else rng.choice((0.1, 0.2, 0.35))
            dup_active = not dup_active
            events.append(ScenarioEvent.duplicate_storm(at, probability=probability))
        elif action == "reshuffle_relays":
            events.append(ScenarioEvent.reshuffle_relays(at))

    return tuple(events)
