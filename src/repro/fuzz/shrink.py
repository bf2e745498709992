"""Automatic shrinking of checker-violating schedules.

Given a scenario that trips a checker, :func:`shrink` deterministically
minimizes it while preserving the violation: it greedily tries removing
events (delta-debugging style, halves before singles), shrinking the
cluster, dropping clients, cutting the duration, narrowing the keyspace
and simplifying config overrides, re-running the scenario after each
candidate edit and keeping it only when the *same checker family* still
fires.  Each accepted edit strictly decreases the scenario's cost tuple,
so shrinking terminates; a run budget caps the worst case.

The end product is meant to be *checked in*: :func:`scenario_literal`
renders any scenario as the library-ready ``Scenario(...)`` source text
used throughout ``repro/scenarios/library.py``, so a fuzz finding becomes
a regression scenario by pasting its shrunk literal (plus a calibrated
``min_completed`` floor) into the library.

Example::

    from repro.fuzz import shrink, scenario_literal

    result = shrink(violating_scenario)
    print(f"shrunk in {result.runs} runs: {result.steps}")
    print(scenario_literal(result.shrunk))
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.scenarios.spec import Scenario, ScenarioEvent
from repro.scenarios.sweep import run_outcome
from repro.workload.spec import WorkloadSpec


@dataclass(frozen=True)
class ShrinkResult:
    """What :func:`shrink` produced and how much work it spent."""

    original: Scenario
    shrunk: Scenario
    #: Checker families the shrunk scenario still trips (a non-empty
    #: subset-intersection with the original's violating checkers).
    checkers: FrozenSet[str]
    #: Scenario executions spent (every candidate edit costs one run).
    runs: int
    #: Accepted reductions, in order, for the finding report.
    steps: Tuple[str, ...]


def _cost(scenario: Scenario) -> Tuple[float, ...]:
    """Lexicographic size of a scenario; every accepted edit decreases it."""
    overrides = scenario.config_overrides or {}
    return (
        len(scenario.events),
        scenario.num_nodes,
        scenario.num_clients,
        scenario.workload.num_keys,
        len(overrides),
        scenario.duration,
    )


def _clamped_groups(value: int, num_nodes: int) -> int:
    return max(1, min(value, num_nodes - 1)) if num_nodes > 1 else 1


def _remap_for_nodes(scenario: Scenario, num_nodes: int) -> Scenario:
    """Rewrite a scenario onto a smaller cluster, dropping stale node refs."""
    events: List[ScenarioEvent] = []
    for event in scenario.events:
        if event.node is not None and event.node >= num_nodes:
            continue
        if event.peer is not None and event.peer >= num_nodes:
            continue
        if event.action == "partition":
            groups = tuple(
                tuple(n for n in group if n < num_nodes) for group in event.groups
            )
            groups = tuple(group for group in groups if group)
            if not groups:
                continue
            event = replace(event, groups=groups)
        events.append(event)
    relay_groups = scenario.relay_groups
    if relay_groups is not None:
        relay_groups = _clamped_groups(relay_groups, num_nodes)
    hierarchy = scenario.hierarchy
    if hierarchy is not None and hierarchy[0] > num_nodes:
        # The spec rejects more regions than nodes; shrink the region
        # count alongside the cluster.
        hierarchy = (num_nodes, hierarchy[1])
    overrides = dict(scenario.config_overrides or {})
    overlay = overrides.get("overlay")
    if isinstance(overlay, dict) and "num_groups" in overlay:
        overlay = dict(overlay)
        overlay["num_groups"] = _clamped_groups(int(overlay["num_groups"]), num_nodes)
        overrides["overlay"] = overlay
    return replace(
        scenario,
        num_nodes=num_nodes,
        events=tuple(events),
        relay_groups=relay_groups,
        hierarchy=hierarchy,
        config_overrides=overrides or None,
    )


def _event_subsets(events: Sequence[ScenarioEvent]) -> List[Tuple[ScenarioEvent, ...]]:
    """Candidate reduced event tuples: drop halves, then quarters, then singles."""
    candidates: List[Tuple[ScenarioEvent, ...]] = []
    n = len(events)
    chunk = n // 2
    while chunk >= 1:
        for start in range(0, n, chunk):
            kept = tuple(events[:start]) + tuple(events[start + chunk:])
            if len(kept) < n:
                candidates.append(kept)
        if chunk == 1:
            break
        chunk //= 2
    return candidates


def shrink(
    scenario: Scenario,
    target: Optional[FrozenSet[str]] = None,
    max_runs: int = 400,
) -> ShrinkResult:
    """Minimize a checker-violating scenario while keeping it violating.

    ``target`` is the set of checker families that must keep firing
    (default: whatever the scenario violates right now).  Deterministic:
    candidate edits are tried in a fixed order and every run is itself
    deterministic, so the same input always shrinks to the same output.

    A candidate is judged by its :func:`~repro.scenarios.sweep.run_outcome`
    record, so one that raises is a rejected edit (its only checker is
    ``crash``) rather than the end of the shrink.

    Raises ``ValueError`` when the input scenario does not violate any
    target checker in the first place.
    """
    runs = 0
    if target is None:
        target = frozenset(run_outcome(scenario).checkers_violated)
        runs += 1
    if not target:
        raise ValueError(
            f"scenario {scenario.name!r} violates nothing; nothing to shrink"
        )

    current = scenario
    steps: List[str] = []
    improved = True
    while improved and runs < max_runs:
        improved = False
        for label, candidate in _safe_candidates(current):
            if runs >= max_runs:
                break
            if _cost(candidate) >= _cost(current):
                continue
            runs += 1
            if target.intersection(run_outcome(candidate).checkers_violated):
                current = candidate
                steps.append(label)
                improved = True
                break  # restart the pass list against the smaller scenario
    final = replace(current, name=f"{scenario.name}-min")
    return ShrinkResult(
        original=scenario,
        shrunk=final,
        checkers=target,
        runs=runs,
        steps=tuple(steps),
    )


def _safe_candidates(scenario: Scenario) -> List[Tuple[str, Scenario]]:
    """Candidate edits whose construction succeeded, in fixed order.

    An edit can itself violate a config constraint (e.g. clamping relay
    groups on a 3-node cluster); those candidates are skipped rather than
    aborting the shrink, and because ``Scenario`` is frozen-validated, any
    candidate returned here is structurally sound before it is ever run.
    """
    out: List[Tuple[str, Scenario]] = []
    for build in _candidate_builders(scenario):
        try:
            out.append(build())
        except ReproError:
            continue
    return out


def _candidate_builders(scenario: Scenario):
    """Yield thunks building (label, candidate) edits, biggest lever first."""
    # 1. Fewer events (the biggest lever for replay comprehension).
    for kept in _event_subsets(scenario.events):
        yield lambda kept=kept: (
            f"events {len(scenario.events)} -> {len(kept)}",
            replace(scenario, events=kept),
        )
    # 2. Smaller cluster.
    for nodes in (3, 5, (scenario.num_nodes + 3) // 2):
        if 3 <= nodes < scenario.num_nodes:
            yield lambda nodes=nodes: (
                f"nodes {scenario.num_nodes} -> {nodes}",
                _remap_for_nodes(scenario, nodes),
            )
    # 3. Fewer clients.
    for clients in (1, 2, scenario.num_clients // 2):
        if 1 <= clients < scenario.num_clients:
            yield lambda clients=clients: (
                f"clients {scenario.num_clients} -> {clients}",
                replace(scenario, num_clients=clients),
            )
    # 4. Narrower keyspace (keeps contention, shrinks the search space).
    for keys in (1, 2):
        if keys < scenario.workload.num_keys:
            yield lambda keys=keys: (
                f"keys {scenario.workload.num_keys} -> {keys}",
                replace(
                    scenario,
                    workload=replace(scenario.workload, num_keys=keys),
                ),
            )
    # 4b. Single consensus group: if the bug reproduces unsharded it is not
    #     a cross-group interaction, and the replay is far easier to read.
    #     (Also unblocks the keyspace shrink above, which the shards <=
    #     num_keys constraint would otherwise veto.)
    if scenario.shards > 1:
        yield lambda: (
            f"shards {scenario.shards} -> 1",
            replace(scenario, shards=1),
        )
    # 4c. Batching off: if the bug reproduces unbatched it is not a
    #     batch/pipeline interaction.  All three knobs go together -- the
    #     delay/pipeline knobs are invalid without batch_max_commands > 1,
    #     so the one-at-a-time dropper below can never disable batching on
    #     its own.
    overrides = dict(scenario.config_overrides or {})
    batch_keys = {"batch_max_commands", "batch_max_delay", "pipeline_depth"}
    if batch_keys & set(overrides):
        rest = {k: v for k, v in overrides.items() if k not in batch_keys}
        yield lambda rest=rest: (
            "batching -> off",
            replace(scenario, config_overrides=rest or None),
        )
    # 5. Simpler config: drop overrides one at a time.
    for key in sorted(overrides):
        rest = {k: v for k, v in overrides.items() if k != key}
        yield lambda key=key, rest=rest: (
            f"drop override {key!r}",
            replace(scenario, config_overrides=rest or None),
        )
    # 6. Shorter run (kept last: cheap to try but least informative).
    last_event = max((event.at for event in scenario.events), default=0.0)
    for factor in (0.25, 0.5, 0.75):
        duration = round(scenario.duration * factor, 3)
        if duration > last_event and duration < scenario.duration:
            yield lambda duration=duration: (
                f"duration {scenario.duration} -> {duration}",
                replace(scenario, duration=duration),
            )


# --------------------------------------------------------------------- emit
_EVENT_ARGS = {
    "crash": lambda e: f"{e.at}, node={e.node}",
    "recover": lambda e: f"{e.at}, node={e.node}",
    "crash_leader": lambda e: f"{e.at}",
    "recover_all": lambda e: f"{e.at}",
    "partition": lambda e: f"{e.at}, " + ", ".join(repr(tuple(g)) for g in e.groups),
    "heal_partition": lambda e: f"{e.at}",
    "sever_link": lambda e: f"{e.at}, {e.node}, {e.peer}",
    "heal_link": lambda e: f"{e.at}, {e.node}, {e.peer}",
    "sluggish": lambda e: f"{e.at}, node={e.node}, factor={e.factor}",
    "reshuffle_relays": lambda e: f"{e.at}",
    "set_drop": lambda e: f"{e.at}, probability={e.probability}",
    "duplicate_storm": lambda e: f"{e.at}, probability={e.probability}",
}

_SCENARIO_DEFAULTS = Scenario(name="_defaults_probe")
_WORKLOAD_DEFAULTS = WorkloadSpec()


def _workload_literal(spec: WorkloadSpec) -> Optional[str]:
    if spec == WorkloadSpec.checking_default():
        return "WorkloadSpec.checking_default()"
    if spec == WorkloadSpec.checking_default(num_keys=spec.num_keys):
        return f"WorkloadSpec.checking_default(num_keys={spec.num_keys})"
    parts = [
        f"{name}={getattr(spec, name)!r}"
        for name in ("num_keys", "key_size", "value_size", "read_ratio",
                     "distribution", "zipf_theta", "unique_values")
        if getattr(spec, name) != getattr(_WORKLOAD_DEFAULTS, name)
    ]
    return f"WorkloadSpec({', '.join(parts)})" if parts else None


def scenario_literal(scenario: Scenario, indent: str = "") -> str:
    """Render a scenario as library-ready ``Scenario(...)`` source text.

    Emits only the fields that differ from the ``Scenario`` defaults, in
    declaration order, matching the idiom of ``repro/scenarios/library.py``
    (events through the ``E`` factory aliases).  The output is executable:
    ``eval`` of the literal with ``Scenario``/``ScenarioEvent as E``/
    ``WorkloadSpec`` in scope reconstructs an equal scenario, which is what
    the round-trip test pins.
    """
    pad = indent + "    "
    lines = [f"{indent}Scenario(", f"{pad}name={scenario.name!r},"]
    for field_name in ("protocol", "num_nodes", "num_clients", "duration",
                       "seed", "relay_groups", "wan", "hierarchy",
                       "use_region_groups"):
        value = getattr(scenario, field_name)
        if value != getattr(_SCENARIO_DEFAULTS, field_name):
            lines.append(f"{pad}{field_name}={value!r},")
    workload = _workload_literal(scenario.workload)
    if workload is not None:
        lines.append(f"{pad}workload={workload},")
    if scenario.client_timeout != _SCENARIO_DEFAULTS.client_timeout:
        lines.append(f"{pad}client_timeout={scenario.client_timeout!r},")
    if scenario.shards != _SCENARIO_DEFAULTS.shards:
        lines.append(f"{pad}shards={scenario.shards!r},")
    if scenario.drop_probability != _SCENARIO_DEFAULTS.drop_probability:
        lines.append(f"{pad}drop_probability={scenario.drop_probability!r},")
    if scenario.checks != _SCENARIO_DEFAULTS.checks:
        if tuple(scenario.checks) == ("linearizability", "log_invariants",
                                      "epaxos_invariants"):
            lines.append(f"{pad}checks=EPAXOS_CHECK_NAMES,")
        else:
            lines.append(f"{pad}checks={tuple(scenario.checks)!r},")
    if scenario.min_completed:
        lines.append(f"{pad}min_completed={scenario.min_completed!r},")
    if scenario.config_overrides:
        lines.append(f"{pad}config_overrides={dict(scenario.config_overrides)!r},")
    if scenario.events:
        lines.append(f"{pad}events=(")
        for event in scenario.events:
            args = _EVENT_ARGS[event.action](event)
            lines.append(f"{pad}    E.{event.action}({args}),")
        lines.append(f"{pad}),")
    if scenario.description:
        lines.append(f"{pad}description={scenario.description!r},")
    lines.append(f"{indent})")
    return "\n".join(lines)
