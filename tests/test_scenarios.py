"""Whole-stack acceptance tests for the scenario engine.

Every canned scenario runs with the linearizability and log-invariant
checkers enabled; a mutation test verifies the checkers actually have
teeth; determinism regressions pin down byte-identical replay.
"""

from __future__ import annotations

import dataclasses

import pytest

from helpers import library_run
from repro.checkers.history import HistoryRecorder
from repro.cluster.builder import build_cluster
from repro.errors import ConfigurationError
from repro.quorum.systems import MajorityQuorum
from repro.scenarios import (
    Scenario,
    ScenarioEvent,
    ScenarioResult,
    ScenarioRunner,
    all_scenarios,
    get_scenario,
    run_scenario,
    scenarios_for_protocol,
)
from repro.sim.engine import Simulator
from repro.workload.spec import WorkloadSpec

CANNED = sorted(all_scenarios())


class TestCannedScenarios:
    @pytest.mark.parametrize("name", CANNED)
    def test_scenario_passes_all_checkers(self, name):
        scenario = get_scenario(name)
        expected = {"linearizability", "log_invariants"}
        if scenario.protocol == "epaxos":
            # EPaxos has no slot log; it runs the instance/dependency-graph
            # invariant family on top (log checks skip themselves but the
            # quorum sanity check still applies).
            expected.add("epaxos_invariants")
        if scenario.min_completed > 0:
            # Scenarios with a liveness floor additionally enable the
            # progress check (e.g. the thrifty-overlay fallback scenarios).
            expected.add("progress")
        assert set(scenario.checks) == expected
        run = library_run(name)
        assert run.ok, run.violations
        assert run.completed_requests > 0
        assert run.recorded_operations >= run.completed_requests

    def test_library_is_large_enough(self):
        # The acceptance bar: at least 8 canned adversarial scenarios for
        # the Paxos family plus at least 5 for EPaxos.
        assert len(CANNED) >= 13
        epaxos = scenarios_for_protocol("epaxos")
        assert len(epaxos) >= 5
        assert all(s.protocol == "epaxos" for s in epaxos.values())

    def test_fault_scenarios_actually_fire_faults(self):
        run = library_run("pig-crash-leader-during-round")
        assert any("crash_leader" in line for line in run.events_fired)
        assert run.counters.get("faults.crashes", 0) >= 1

    def test_relay_churn_scenario_reshuffles(self):
        assert library_run("pig-relay-churn").counters.get("pigpaxos.group_reshuffles", 0) >= 1

    def test_timeout_storm_exercises_relay_timeouts(self):
        counters = library_run("pig-relay-timeout-storm").counters
        assert counters.get("pigpaxos.relay_timeouts", 0) >= 1
        assert counters.get("net.messages_dropped", 0) >= 1


class TestEPaxosScenarios:
    def test_duplicate_torture_actually_duplicates(self):
        counters = library_run("epaxos-duplicate-torture").counters
        assert counters.get("net.messages_duplicated", 0) >= 100
        # The replicas saw (and ignored) retransmitted votes.
        duplicate_votes = sum(
            value for name, value in counters.items()
            if name.startswith("epaxos.duplicate_") and name.endswith("_replies")
        )
        assert duplicate_votes >= 1

    def test_hot_key_storm_is_contended(self):
        counters = library_run("epaxos-hot-key-storm").counters
        # Contention shows up as slow-path rounds (changed PreAccept replies).
        assert counters.get("epaxos.slow_path_rounds", 0) >= 1
        assert counters.get("epaxos.fast_path_commits", 0) >= 1

    def test_crash_scenario_degrades_but_stays_safe(self):
        run = library_run("epaxos-crash-degraded")
        assert run.counters.get("faults.crashes", 0) >= 1
        assert run.ok

    def test_retries_are_deduplicated_not_reapplied(self):
        """Client retries under drops land in fresh instances; the session
        filter must be what keeps the run linearizable."""
        counters = library_run("epaxos-drop-storm").counters
        assert counters.get("epaxos.duplicate_commands_skipped", 0) >= 1

    @pytest.mark.parametrize(
        "name",
        ["epaxos-hot-key-storm", "epaxos-duplicate-torture", "epaxos-recovery-crash"],
    )
    def test_epaxos_scenarios_are_deterministic(self, name):
        first = library_run(name)
        second = run_scenario(get_scenario(name))  # a fresh run, same seed
        assert first.fingerprint == second.fingerprint()
        assert first.counters == second.counters()
        assert first.events_processed == second.events_processed


class TestEPaxosRecoveryScenarios:
    def test_recovery_crash_actually_recovers_orphans(self):
        result = run_scenario(get_scenario("epaxos-recovery-crash"))
        counters = result.counters()
        assert counters.get("epaxos.recoveries_started", 0) >= 1
        assert counters.get("epaxos.recoveries_completed", 0) >= 1
        # Survivors hold no blocked instance at the end of the run.
        blocked = sum(
            len(node.replica._pending_execution)
            for node in result.cluster.nodes.values()
            if not node.crashed
        )
        assert blocked == 0
        # Post-crash throughput genuinely recovers (the degraded-mode twin
        # of this scenario collapses to single digits after the crash).
        post_crash = [op for op in result.history.completed() if op.completed_at > 0.7]
        assert len(post_crash) > 50

    def test_recovery_crash_floor_fails_without_recovery(self):
        """The progress floor is what *proves* recovery works: the same
        scenario with the knob removed must complete too few operations."""
        from dataclasses import replace

        scenario = get_scenario("epaxos-recovery-crash")
        degraded = replace(
            scenario,
            name="recovery-crash-disabled",
            config_overrides={"recovery_timeout": None},
        )
        result = run_scenario(degraded)
        violations = {v.checker for v in result.violations}
        assert violations == {"progress"}
        assert result.completed_requests < scenario.min_completed

    def test_relay_recovery_exercises_all_three_mechanisms(self):
        counters = library_run("epaxos-relay-recovery-25").counters
        assert counters.get("epaxos.recoveries_started", 0) >= 1
        assert counters.get("epaxos.commit_fallbacks", 0) >= 1
        assert counters.get("epaxos.leader_round_retries", 0) >= 1

    def test_drop_storm_recovery_adopts_dropped_commits(self):
        """Recovery also repairs drop-induced commit holes: a replica whose
        ECommit was dropped re-learns the decision through EPrepare."""
        from dataclasses import replace

        scenario = replace(
            get_scenario("epaxos-drop-storm"),
            name="drop-storm-with-recovery",
            seed=41,
            duration=2.5,
            config_overrides={"recovery_timeout": 0.25},
        )
        result = run_scenario(scenario)
        result.raise_on_violations()
        assert result.counters().get("epaxos.recoveries_adopted_commit", 0) >= 1


class TestMutationsAreCaught:
    def test_broken_quorum_is_caught_by_checkers(self, monkeypatch):
        """Quorum off by a lot: a leader that commits with phase2 quorum of 1
        splits the cluster's logs under a partition; the checkers must see it."""
        monkeypatch.setattr(MajorityQuorum, "phase2_size", property(lambda self: 1))
        result = run_scenario(get_scenario("pig-partition-leader-minority"))
        assert not result.ok
        checkers = {violation.checker for violation in result.violations}
        assert checkers  # at least one checker fired

    def test_vote_counting_mutation_is_caught(self, monkeypatch):
        """A tracker that is satisfied one vote early must trip a checker."""
        from repro.quorum import tracker as tracker_module

        original = tracker_module.VoteTracker.satisfied.fget
        monkeypatch.setattr(
            tracker_module.VoteTracker,
            "satisfied",
            property(lambda self: len(self._acks) >= self.required - 1),
        )
        assert original is not None
        result = run_scenario(get_scenario("pig-partition-leader-minority"))
        assert not result.ok

    def test_epaxos_vote_dedup_mutation_is_caught(self, monkeypatch):
        """Re-seed the pre-fix bug: every delivered PreAccept/Accept reply
        counts as a fresh vote, so retransmissions prematurely satisfy the
        fast-path quorum and conflict edges are lost.  The EPaxos checkers
        must see it under the duplicate-delivery storm."""
        from repro.epaxos.replica import EPaxosReplica

        def count_every_delivery(voters, voter):
            voters.add((voter, len(voters)))  # duplicates look distinct
            return True

        monkeypatch.setattr(
            EPaxosReplica, "_register_vote", staticmethod(count_every_delivery)
        )
        result = run_scenario(get_scenario("epaxos-duplicate-torture"))
        assert not result.ok
        checkers = {violation.checker for violation in result.violations}
        assert checkers & {
            "epaxos_conflict_ordering",
            "epaxos_execution_consistency",
            "epaxos_execution_order",
            "linearizability",
        }

    def test_epaxos_key_index_mutation_is_caught(self, monkeypatch):
        """Re-seed the pre-fix key index: a single last-writer-wins slot per
        key (instead of one per origin replica) silently drops dependency
        edges under contention; replicas then execute conflicting commands
        in different orders."""
        from repro.epaxos.replica import EPaxosReplica

        def last_writer_wins(self, command, instance):
            self._key_index[command.key] = {instance[0]: instance[1]}

        monkeypatch.setattr(EPaxosReplica, "_record_key", last_writer_wins)
        result = run_scenario(get_scenario("epaxos-hot-key-storm"))
        assert not result.ok
        checkers = {violation.checker for violation in result.violations}
        assert "epaxos_execution_consistency" in checkers or "epaxos_conflict_ordering" in checkers

    def test_epaxos_forced_noop_recovery_is_caught(self, monkeypatch):
        """A recovery that no-ops every orphan -- ignoring the commit and
        accept evidence its prepare round gathered -- must trip the EPaxos
        invariants: some replica committed (and executed) the real command,
        so the no-op commit diverges from it."""
        from dataclasses import replace

        from repro.epaxos.replica import EPaxosReplica, NoOp

        def noop_everything(self, recovery, msg):
            if msg.voter in recovery.replies:
                return
            recovery.replies[msg.voter] = msg
            if len(recovery.replies) >= self.quorum.phase1_size:
                self._recovery_accept(recovery, NoOp(), 1, frozenset(), noop=True)

        monkeypatch.setattr(EPaxosReplica, "_record_prepare_reply", noop_everything)
        scenario = replace(
            get_scenario("epaxos-drop-storm"),
            name="drop-storm-noop-mutation",
            seed=41,
            duration=2.5,
            config_overrides={"recovery_timeout": 0.25},
        )
        result = run_scenario(scenario)
        assert not result.ok
        checkers = {violation.checker for violation in result.violations}
        assert checkers & {
            "epaxos_instance_agreement",
            "epaxos_execution_consistency",
            "epaxos_conflict_ordering",
            "linearizability",
        }

    def test_epaxos_planner_order_mutation_is_caught(self, monkeypatch):
        """A planner that drops the (seq, id) cycle tie-break (sorting by
        instance id alone) executes cycles in the wrong deterministic order;
        the execution-order checker must flag it."""
        from repro.epaxos.graph import DependencyGraph

        original = DependencyGraph.execution_order

        def id_sorted(self, root):
            order, visited = original(self, root)
            return sorted(order), visited

        monkeypatch.setattr(DependencyGraph, "execution_order", id_sorted)
        result = run_scenario(get_scenario("epaxos-hot-key-storm"))
        assert not result.ok
        checkers = {violation.checker for violation in result.violations}
        assert "epaxos_execution_order" in checkers


class TestDeterminism:
    def test_same_seed_produces_byte_identical_histories_and_metrics(self):
        scenario = get_scenario("pig-crash-follower")
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        first_ops = [op.signature() for op in first.history.operations()]
        second_ops = [op.signature() for op in second.history.operations()]
        assert first_ops == second_ops
        assert first.history.fingerprint() == second.history.fingerprint()
        assert first.fingerprint() == second.fingerprint()
        assert first.counters() == second.counters()
        assert first.events_processed == second.events_processed

    def test_different_seed_produces_different_history(self):
        scenario = get_scenario("pig-baseline-5")
        first = run_scenario(scenario)
        second = run_scenario(scenario.with_seed(scenario.seed + 1))
        assert first.fingerprint() != second.fingerprint()

    def test_simulator_reset_reruns_cleanly(self):
        def drive(sim: Simulator):
            observed = []
            rng = sim.random.stream("probe")

            def tick(tag):
                observed.append((tag, sim.now, rng.random()))
                if tag < 3:
                    sim.schedule(rng.uniform(0.1, 0.5), tick, tag + 1)

            sim.schedule(0.1, tick, 0)
            sim.run()
            return observed

        sim = Simulator(seed=99)
        first = drive(sim)
        sim.reset(seed=99)
        assert sim.now == 0.0
        assert sim.pending_events == 0
        second = drive(sim)
        assert first == second


class TestScenarioSpecValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent(at=0.1, action="meteor-strike")

    def test_crash_needs_node(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent(at=0.1, action="crash")

    def test_event_after_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(
                name="late-event",
                duration=1.0,
                events=(ScenarioEvent.crash(2.0, node=1),),
            )

    def test_negative_event_time_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent.crash(-1.0, node=0)

    @pytest.mark.parametrize(
        "event",
        [
            ScenarioEvent.crash(0.1, 7),
            ScenarioEvent.sever_link(0.1, 0, 3),
            ScenarioEvent.partition(0.1, (0, 1), (2, 5)),
        ],
        ids=["node", "peer", "groups"],
    )
    def test_event_naming_an_absent_node_rejected(self, event):
        # Used to die mid-run with a bare KeyError (crash) or be silently
        # accepted and do nothing (sever_link, partition).
        with pytest.raises(ConfigurationError, match=f"{event.action}.*outside the cluster"):
            Scenario(name="absent-node", num_nodes=3, events=(event,))

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="bad-check", checks=("vibes",))

    def test_out_of_range_drop_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent.set_drop(0.5, probability=1.5)
        with pytest.raises(ConfigurationError):
            ScenarioEvent.set_drop(0.5, probability=-0.1)

    def test_out_of_range_duplicate_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent.duplicate_storm(0.5, probability=1.0)
        with pytest.raises(ConfigurationError):
            ScenarioEvent.duplicate_storm(0.5, probability=-0.2)

    def test_non_positive_sluggish_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent.sluggish(0.5, node=1, factor=0.0)

    def test_epaxos_accepts_only_session_window_override(self):
        from repro.scenarios.runner import ScenarioRunner

        good = Scenario(name="ok", protocol="epaxos", duration=0.2,
                        checks=("linearizability",),
                        config_overrides={"session_window": 8})
        cluster = ScenarioRunner(good).build()
        assert cluster.nodes[0].replica._session_window == 8

        bad = Scenario(name="bad", protocol="epaxos", duration=0.2,
                       checks=("linearizability",),
                       config_overrides={"heartbeat_interval": 0.01})
        with pytest.raises(ConfigurationError):
            ScenarioRunner(bad).build()

    def test_custom_scenario_runs(self):
        scenario = Scenario(
            name="custom-tiny",
            num_nodes=3,
            num_clients=2,
            duration=0.5,
            seed=1,
            events=(ScenarioEvent.sluggish(0.2, node=2, factor=4.0),),
        )
        result = run_scenario(scenario)
        result.raise_on_violations()
        assert result.completed_requests > 0


def _overlay(cluster):
    return cluster.nodes[0].replica.config.overlay


#: Scenario field -> (a non-default spelling, where the built cluster shows it, what it shows).
FORWARDED = {
    "protocol": ({"protocol": "paxos"}, lambda c: c.protocol, "paxos"),
    "num_nodes": ({"num_nodes": 7}, lambda c: len(c.nodes), 7),
    "num_clients": ({"num_clients": 9}, lambda c: len(c.clients), 9),
    "seed": ({"seed": 31}, lambda c: c.sim.random.master_seed, 31),
    "relay_groups": ({"relay_groups": 2}, lambda c: _overlay(c).num_groups, 2),
    "wan": ({"wan": True}, lambda c: len(set(c.topology.region_map().values())), 3),
    "hierarchy": ({"hierarchy": (2, 2)}, lambda c: len(set(c.topology.zone_map().values())), 4),
    "use_region_groups": (
        {"use_region_groups": True, "wan": True},
        lambda c: _overlay(c).use_region_groups,
        True,
    ),
    "workload": (
        {"workload": WorkloadSpec(num_keys=3)},
        lambda c: c.clients[0]._generator.spec,
        WorkloadSpec(num_keys=3),
    ),
    "client_timeout": ({"client_timeout": 0.7}, lambda c: c.clients[0]._request_timeout, 0.7),
    "shards": ({"shards": 3}, lambda c: c.num_shards, 3),
    "drop_probability": (
        {"drop_probability": 0.1},
        lambda c: c.network.faults.drop_probability,
        0.1,
    ),
    "config_overrides": (
        {"config_overrides": {"session_window": 4}},
        lambda c: c.nodes[0].replica.config.session_window,
        4,
    ),
}
#: Fields the runner consumes itself (schedule, checkers, labels); the cluster never sees them.
RUN_ONLY = {"name", "duration", "events", "checks", "min_completed", "description"}


class TestScenarioCompilation:
    def test_no_scenario_field_is_dropped_on_the_floor(self):
        # A new Scenario field must be wired through ScenarioRunner.build
        # (and observed here) or be declared run-only.
        assert set(FORWARDED) | RUN_ONLY == {f.name for f in dataclasses.fields(Scenario)}
        assert not set(FORWARDED) & RUN_ONLY

    @pytest.mark.parametrize("field", sorted(FORWARDED))
    def test_forwarded_field_reaches_the_built_cluster(self, field):
        spelling, observe, expected = FORWARDED[field]
        default = ScenarioRunner(Scenario(name="default")).build()
        probe = ScenarioRunner(Scenario(name="probe", **spelling)).build()
        assert observe(probe) == expected
        assert observe(default) != expected

    def test_build_cluster_called_directly_reproduces_the_runner(self):
        scenario = get_scenario("pig-baseline-5")
        assert not scenario.events and not scenario.wan and scenario.hierarchy is None
        via_runner = run_scenario(scenario)
        recorder = HistoryRecorder()
        cluster = build_cluster(
            scenario.protocol,
            num_nodes=scenario.num_nodes,
            num_clients=scenario.num_clients,
            seed=scenario.seed,
            workload=scenario.workload,
            protocol_config=scenario.config_overrides,
            relay_groups=scenario.relay_groups,
            client_timeout=scenario.client_timeout,
            history_recorder=recorder,
        )
        cluster.run(scenario.duration)
        direct = ScenarioResult(
            scenario=scenario,
            cluster=cluster,
            history=recorder.history(),
            violations=[],
            completed_requests=cluster.total_completed_requests(),
            events_processed=cluster.sim.events_processed,
            virtual_duration=cluster.sim.now,
        )
        assert direct.fingerprint() == via_runner.fingerprint()
