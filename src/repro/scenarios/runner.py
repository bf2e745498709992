"""Compiles a :class:`~repro.scenarios.spec.Scenario` onto the simulator.

``ScenarioRunner`` is the bridge between the declarative spec layer and the
concrete stack: it builds the topology and, with one ``build_cluster``
call, the cluster with its clients and history recorder, arms the timed
event schedule, runs the simulation, and applies the requested checkers
post-hoc.  The returned
:class:`ScenarioResult` bundles everything a test or benchmark needs: the
cluster (for poking at replica state), the recorded history, the violations
found, a determinism fingerprint, and -- on demand, never during the run --
the windowed client-side measurements (:meth:`ScenarioResult.stats`).

Example::

    from repro.scenarios import ScenarioRunner, get_scenario

    runner = ScenarioRunner(get_scenario("epaxos-relay-wan-9"))
    result = runner.run()
    assert result.ok, result.violations
    print(result.counters()["net.messages_sent"])
    print(result.stats(start=0.2).row())        # measure past a 0.2 s warm-up
    # Same spec + seed => identical fingerprint, every time:
    assert ScenarioRunner(result.scenario).run().fingerprint() == result.fingerprint()
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.bench.results import RunResult
from repro.checkers.history import History
from repro.checkers.invariants import Violation, run_epaxos_checks, run_log_checks
from repro.checkers.linearizability import check_linearizability
from repro.cluster.builder import Cluster, build_cluster
from repro.cluster.topologies import planet_topology, wan_topology
from repro.errors import ConfigurationError, ReproError
from repro.scenarios.spec import Scenario, ScenarioEvent
from repro.sim.metrics import Histogram, TimeSeries


@dataclass
class ScenarioResult:
    """Everything produced by one scenario run."""

    scenario: Scenario
    cluster: Cluster
    history: History
    violations: List[Violation]
    completed_requests: int
    events_processed: int
    virtual_duration: float
    events_fired: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every enabled checker passed."""
        return not self.violations

    def fingerprint(self) -> str:
        """Stable digest of the run; identical for identical (spec, seed)."""
        digest = hashlib.sha256()
        digest.update(self.history.fingerprint().encode("utf-8"))
        digest.update(
            f"|completed={self.completed_requests}"
            f"|events={self.events_processed}"
            f"|now={self.virtual_duration:.9f}".encode("utf-8")
        )
        return digest.hexdigest()

    def counters(self) -> Dict[str, float]:
        return self.cluster.sim.metrics.counters()

    def _completions(self) -> Iterator[Tuple[float, float]]:
        """Every client's ``(completed_at, latency)`` pairs."""
        for client in self.cluster.clients:
            yield from client.stats.completions

    def stats(self, start: float = 0.0, end: Optional[float] = None) -> RunResult:
        """Client-side measurements over completions in ``[start, end]``.

        The one place completions become throughput and latency percentiles.
        Both window edges are inclusive and ``end`` defaults to the
        scenario's duration, so a warm-up is ``stats(start=warmup)`` and a
        cool-down is ``stats(end=duration - cooldown)``.  A window without
        completions yields zeros; one without extent is a caller bug.
        """
        end = self.scenario.duration if end is None else end
        if not 0.0 <= start < end:
            raise ConfigurationError(f"stats window [{start}, {end}] is empty or inverted")
        latency = Histogram("client.latency")
        for completed_at, value in self._completions():
            if start <= completed_at <= end:
                latency.observe(value)
        return RunResult(
            protocol=self.scenario.protocol,
            num_nodes=self.scenario.num_nodes,
            num_clients=self.scenario.num_clients,
            duration=self.scenario.duration,
            measured_window=end - start,
            completed_requests=latency.count,
            throughput=latency.count / (end - start),
            latency_mean=latency.mean,
            latency_p50=latency.percentile(50),
            latency_p95=latency.percentile(95),
            latency_p99=latency.percentile(99),
            latency_max=latency.max,
            client_retries=sum(client.stats.retries for client in self.cluster.clients),
        )

    def completion_rates(self, interval: float = 1.0) -> List[Tuple[float, float]]:
        """``(window_start, ops/s)`` per ``interval`` over the whole run (Fig. 13)."""
        series = TimeSeries("client.completions", interval)
        for completed_at, _ in self._completions():
            series.record(completed_at)
        return series.rates(end=self.scenario.duration)

    def raise_on_violations(self, max_listed: int = 20) -> None:
        if self.violations:
            listed = self.violations[:max_listed]
            details = "\n".join(str(v) for v in listed)
            if len(self.violations) > max_listed:
                details += f"\n... and {len(self.violations) - max_listed} more"
            raise AssertionError(
                f"scenario {self.scenario.name!r} violated "
                f"{len(self.violations)} invariant(s):\n{details}"
            )


class ScenarioRunner:
    """Builds, runs and checks one scenario."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario

    # ------------------------------------------------------------------ build
    def build(self) -> Cluster:
        """Compile the spec into a ready-to-run cluster (without running)."""
        scenario = self.scenario
        topology = None
        if scenario.wan:
            topology = wan_topology(num_nodes=scenario.num_nodes)
        elif scenario.hierarchy is not None:
            num_regions, zones_per_region = scenario.hierarchy
            topology = planet_topology(
                num_nodes=scenario.num_nodes,
                num_regions=num_regions,
                zones_per_region=zones_per_region,
            )
        return build_cluster(
            protocol=scenario.protocol,
            num_nodes=scenario.num_nodes,
            num_clients=scenario.num_clients,
            seed=scenario.seed,
            workload=scenario.workload,
            protocol_config=scenario.config_overrides,
            relay_groups=scenario.relay_groups,
            use_region_groups=scenario.use_region_groups,
            shards=scenario.shards,
            client_timeout=scenario.client_timeout,
            drop_probability=scenario.drop_probability,
            topology=topology,
        )

    # ------------------------------------------------------------------ run
    def run(self) -> ScenarioResult:
        """Build, simulate and check with the cyclic collector suspended throughout.

        What a run allocates is acyclic, so reference counting reclaims it.
        The simulator already suspends the collector while events fire; the
        checkers then allocate over everything the run left alive, and the
        generation scans that triggered found nothing to free.  The caller's
        setting is restored on the way out.
        """
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run()
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self) -> ScenarioResult:
        cluster = self.build()
        events_fired: List[str] = []
        cluster.start()
        # A fresh simulator's clock reads 0.0, so each delay is the event's time.
        for event in self.scenario.events:
            cluster.sim.schedule(event.at, self._fire, cluster, event, events_fired)
        violations: List[Violation] = []
        try:
            cluster.sim.run(until=self.scenario.duration)
        except ReproError as exc:
            # A broken protocol can trip the stack's own safety guards (e.g.
            # "overwrite committed slot") before the post-hoc checkers see
            # the state.  Report it as a violation and still check whatever
            # partial state exists -- mutation tests rely on this.
            violations.append(
                Violation(
                    checker="runtime",
                    message=f"simulation aborted: {type(exc).__name__}: {exc}",
                )
            )

        history = cluster.history()
        if "log_invariants" in self.scenario.checks:
            violations.extend(self._grouped_checks(cluster, run_log_checks))
        if "epaxos_invariants" in self.scenario.checks:
            violations.extend(self._grouped_checks(cluster, run_epaxos_checks))
        if "linearizability" in self.scenario.checks:
            violations.extend(check_linearizability(history))
        if "progress" in self.scenario.checks:
            completed = cluster.total_completed_requests()
            if completed < self.scenario.min_completed:
                violations.append(
                    Violation(
                        checker="progress",
                        message=(
                            f"liveness floor missed: {completed} operations "
                            f"completed, scenario requires >= "
                            f"{self.scenario.min_completed}"
                        ),
                    )
                )

        return ScenarioResult(
            scenario=self.scenario,
            cluster=cluster,
            history=history,
            violations=violations,
            completed_requests=cluster.total_completed_requests(),
            events_processed=cluster.sim.events_processed,
            virtual_duration=cluster.sim.now,
            events_fired=events_fired,
        )

    @staticmethod
    def _grouped_checks(cluster: Cluster, check) -> List[Violation]:
        """Apply a cluster-shaped checker per consensus group.

        Unsharded clusters go straight through (the historical path); a
        sharded cluster is checked one :class:`ShardGroupView` at a time,
        with each violation labelled by the group it came from.
        """
        if cluster.num_shards == 1:
            return check(cluster)
        violations: List[Violation] = []
        for view in cluster.shard_views():
            for violation in check(view):
                violations.append(
                    Violation(
                        checker=violation.checker,
                        message=f"[shard {view.shard}] {violation.message}",
                    )
                )
        return violations

    # ------------------------------------------------------------------ events
    @staticmethod
    def _fire(cluster: Cluster, event: ScenarioEvent, fired: List[str]) -> None:
        """Apply one scheduled event now; dynamic targets resolve here."""
        detail = _ACTIONS[event.action](cluster, event)
        fired.append(f"t={event.at:.3f} {event.action}{detail or ''}")


def _crash_leader(cluster: Cluster, event: ScenarioEvent) -> str:
    leader = cluster.leader_id()
    if leader is None:
        return " (no leader)"
    cluster.crash_node(leader)
    return f" (node {leader})"


def _recover_all(cluster: Cluster, event: ScenarioEvent) -> None:
    for node_id, node in cluster.nodes.items():
        if node.crashed:
            cluster.recover_node(node_id)


def _reshuffle_relays(cluster: Cluster, event: ScenarioEvent) -> None:
    # Paxos-family: only the leader owns a relay plan.  EPaxos has no
    # ``is_leader``: every replica is a fan-out root with its own plan, so
    # all of them reshuffle (a no-op under non-relay overlays).  Sharded
    # clusters reshuffle every hosted group's eligible replicas.
    for node in cluster.all_replica_hosts():
        replica = node.replica
        if not node.crashed and getattr(replica, "is_leader", True):
            replica.overlay.reshuffle()


def _set_drop(cluster: Cluster, event: ScenarioEvent) -> None:
    cluster.network.faults.drop_probability = event.probability


def _duplicate_storm(cluster: Cluster, event: ScenarioEvent) -> None:
    cluster.network.faults.duplicate_probability = event.probability


#: action name -> ``(cluster, event)`` applier, one per ``EVENT_ACTIONS``
#: entry; the returned string, if any, is appended to the fired-event label.
_ACTIONS: Dict[str, Callable[[Cluster, ScenarioEvent], Optional[str]]] = {
    "crash": lambda cluster, event: cluster.crash_node(event.node),
    "recover": lambda cluster, event: cluster.recover_node(event.node),
    "crash_leader": _crash_leader,
    "recover_all": _recover_all,
    "partition": lambda cluster, event: cluster.network.faults.partition(*event.groups),
    "heal_partition": lambda cluster, event: cluster.network.faults.heal_partition(),
    "sever_link": lambda cluster, event: cluster.network.faults.sever_link(event.node, event.peer),
    "heal_link": lambda cluster, event: cluster.network.faults.heal_link(event.node, event.peer),
    "sluggish": lambda cluster, event: cluster.nodes[event.node].set_sluggish(event.factor),
    "reshuffle_relays": _reshuffle_relays,
    "set_drop": _set_drop,
    "duplicate_storm": _duplicate_storm,
}


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """One-call convenience wrapper."""
    return ScenarioRunner(scenario).run()
