"""Compiles a :class:`~repro.scenarios.spec.Scenario` onto the simulator.

``ScenarioRunner`` is the bridge between the declarative spec layer and the
concrete stack: it builds the topology, protocol config, cluster, clients
and history recorder, arms the timed event schedule, runs the simulation,
and applies the requested checkers post-hoc.  The returned
:class:`ScenarioResult` bundles everything a test or benchmark needs: the
cluster (for poking at replica state), the recorded history, the violations
found, a determinism fingerprint, and -- on demand, never during the run --
the windowed client-side measurements (:meth:`ScenarioResult.stats`).

Example::

    from repro.scenarios import ScenarioRunner, get_scenario

    runner = ScenarioRunner(get_scenario("epaxos-relay-wan-9"))
    result = runner.run()
    assert result.ok, result.violations
    print(result.summary())
    print(result.counters()["net.messages_sent"])
    print(result.stats(start=0.2).row())        # measure past a 0.2 s warm-up
    # Same spec + seed => identical fingerprint, every time:
    assert ScenarioRunner(result.scenario).run().fingerprint() == result.fingerprint()
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bench.results import RunResult
from repro.checkers.history import History, HistoryRecorder
from repro.checkers.invariants import Violation, run_epaxos_checks, run_log_checks
from repro.checkers.linearizability import check_linearizability
from repro.cluster.builder import Cluster, ClusterBuilder
from repro.cluster.faults import FaultEvent, FaultKind
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

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (
            f"{self.scenario.name}: {status}, "
            f"{self.completed_requests} ops completed, "
            f"{len(self.history)} recorded, "
            f"{self.events_processed} sim events, "
            f"{len(self.events_fired)} faults fired"
        )


class ScenarioRunner:
    """Builds, runs and checks one scenario."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self._recorder = HistoryRecorder()

    # ------------------------------------------------------------------ build
    def build(self) -> Cluster:
        """Compile the spec into a ready-to-run cluster (without running)."""
        scenario = self.scenario
        builder = (
            ClusterBuilder()
            .protocol(scenario.protocol)
            .nodes(scenario.num_nodes)
            .clients(scenario.num_clients)
            .seed(scenario.seed)
            .workload(scenario.workload)
            .client_timeout(scenario.client_timeout)
            .history_recorder(self._recorder)
            .relay_groups(scenario.relay_groups)
            .region_relay_groups(scenario.use_region_groups)
            .protocol_config(scenario.config_overrides)
        )
        if scenario.wan:
            builder.topology(wan_topology(num_nodes=scenario.num_nodes))
        if scenario.hierarchy is not None:
            num_regions, zones_per_region = scenario.hierarchy
            builder.topology(
                planet_topology(
                    num_nodes=scenario.num_nodes,
                    num_regions=num_regions,
                    zones_per_region=zones_per_region,
                )
            )
        if scenario.shards != 1:
            builder.shards(scenario.shards)
        if scenario.drop_probability > 0.0:
            builder.message_drop_probability(scenario.drop_probability)
        return builder.build()

    # ------------------------------------------------------------------ run
    def run(self) -> ScenarioResult:
        cluster = self.build()
        events_fired: List[str] = []
        cluster.start()
        for event in self.scenario.events:
            cluster.sim.schedule_at(event.at, self._fire, cluster, event, events_fired)
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

        history = self._recorder.history()
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
    #: Static actions map 1:1 onto the cluster's own fault dispatcher.
    _STATIC_FAULT_KINDS = {
        "crash": FaultKind.CRASH,
        "recover": FaultKind.RECOVER,
        "sluggish": FaultKind.SLUGGISH,
        "sever_link": FaultKind.SEVER_LINK,
        "heal_link": FaultKind.HEAL_LINK,
        "partition": FaultKind.PARTITION,
        "heal_partition": FaultKind.HEAL_PARTITION,
    }

    def _fire(self, cluster: Cluster, event: ScenarioEvent, fired: List[str]) -> None:
        """Apply one scheduled event, resolving dynamic targets now.

        Static faults are translated to :class:`FaultEvent` and routed
        through :meth:`Cluster.apply_fault` so there is exactly one fault
        dispatch path; only the dynamic actions live here.
        """
        action = event.action
        label = f"t={event.at:.3f} {action}"
        kind = self._STATIC_FAULT_KINDS.get(action)
        if kind is not None:
            cluster.apply_fault(
                FaultEvent(
                    at=event.at,
                    kind=kind,
                    node=event.node,
                    peer=event.peer,
                    factor=event.factor,
                    groups=event.groups,
                )
            )
        elif action == "crash_leader":
            leader = cluster.leader_id()
            if leader is None:
                fired.append(f"{label} (no leader)")
                return
            cluster.crash_node(leader)
            label = f"{label} (node {leader})"
        elif action == "recover_all":
            for node_id, node in cluster.nodes.items():
                if node.crashed:
                    cluster.recover_node(node_id)
        elif action == "reshuffle_relays":
            # Paxos-family: only the leader owns a relay plan.  EPaxos has
            # no ``is_leader``: every replica is a fan-out root with its own
            # plan, so all of them reshuffle (a no-op under non-relay
            # overlays).  Sharded clusters reshuffle every hosted group's
            # eligible replicas.
            for node in cluster.all_replica_hosts():
                replica = node.replica
                if not node.crashed and getattr(replica, "is_leader", True):
                    replica.overlay.reshuffle()
        elif action == "set_drop":
            cluster.network.faults.drop_probability = event.probability
        elif action == "duplicate_storm":
            cluster.network.faults.duplicate_probability = event.probability
        fired.append(label)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """One-call convenience wrapper."""
    return ScenarioRunner(scenario).run()
