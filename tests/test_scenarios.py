"""Whole-stack acceptance tests for the scenario engine.

Every canned scenario runs with the linearizability and log-invariant
checkers enabled; a mutation test verifies the checkers actually have
teeth; determinism regressions pin down byte-identical replay.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools

import pytest

from helpers import library_run
from repro.cluster.builder import build_cluster
from repro.errors import ConfigurationError
from repro.fuzz.mutations import apply_mutation
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
from repro.scenarios import __main__ as cli
from repro.scenarios.sweep import run_outcome
from repro.sim.engine import Simulator
from repro.statemachine import command as command_module
from repro.statemachine.log import ReplicatedLog
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
        """Client retries under drops land in fresh instances, and the
        session filter skips them.  It is not what keeps this run
        linearizable: with ``session-dedup-off`` the duplicates re-apply and
        every checker still passes, so the replica-level cases in
        test_paxos_unit.py and test_epaxos_unit.py are what guard dedup."""
        counters = library_run("epaxos-drop-storm").counters
        assert counters.get("epaxos.duplicate_commands_skipped", 0) >= 1

    @pytest.mark.parametrize(
        "name",
        ["epaxos-hot-key-storm", "epaxos-duplicate-torture", "epaxos-recovery-crash"],
    )
    def test_epaxos_scenarios_are_deterministic(self, name):
        # The memo is the record: a fresh run, same seed, equals it whole --
        # fingerprint, counters, violations, events and recorded operations.
        assert library_run(name) == run_outcome(get_scenario(name))


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
        splits the cluster's logs under a partition; the log checkers, the
        quorum sanity check and linearizability must all see it."""
        result = _run_mutated(
            monkeypatch, "phase2-quorum-one", get_scenario("pig-partition-leader-minority")
        )
        assert not result.ok
        assert _verdicts(result) == {
            "linearizability": (14, _PINS["partition/quorum-one/linearizability"]),
            "prefix_agreement": (6, _PINS["partition/quorum-one/prefix_agreement"]),
            "quorum_sanity": (5, _PINS["partition/quorum-one/quorum_sanity"]),
            "slot_agreement": (22157, _PINS["partition/quorum-one/slot_agreement"]),
        }

    def test_vote_counting_mutation_is_caught(self, monkeypatch):
        """A tracker that reports the quorum one vote early commits two
        values in one slot across the partition: the log checkers see the
        divergence, a follower refuses to overwrite its committed slot (the
        run aborts) and the liveness floor is missed."""
        result = _run_mutated(
            monkeypatch, "vote-count-early", get_scenario("pig-partition-leader-minority")
        )
        assert not result.ok
        assert _verdicts(result) == {
            "prefix_agreement": (2, _PINS["partition/count-early/prefix_agreement"]),
            "progress": (1, _PINS["partition/count-early/progress"]),
            "runtime": (1, _PINS["partition/count-early/runtime"]),
            "slot_agreement": (1, _PINS["partition/count-early/slot_agreement"]),
        }

    def test_promise_pruning_mutation_is_caught(self, monkeypatch):
        """Promises that leave out executed entries let a new leader
        re-propose a stale value over a chosen slot under fast leader
        churn; the follower's log refuses the overwrite (the run aborts)."""
        result = _run_mutated(
            monkeypatch, "promise-prunes-executed", get_scenario("paxos-leader-churn-chosen-slot")
        )
        assert not result.ok
        assert _verdicts(result) == {
            "runtime": (1, _PINS["churn/prunes-executed/runtime"]),
        }

    def test_promise_pruning_mutation_is_caught_without_the_accept_guard(self, monkeypatch):
        """Guards are not checkers: with ``ReplicatedLog.accept``'s refusal
        to overwrite a committed slot patched out, the post-hoc log checks
        and linearizability still catch the overwrite."""
        original = ReplicatedLog.accept

        def accept_over_committed(self, slot, ballot, command):
            existing = self.by_slot.get(slot)
            if existing is None or not existing.committed:
                return original(self, slot, ballot, command)
            existing.committed = False
            entry = original(self, slot, ballot, command)
            entry.committed = True
            return entry

        monkeypatch.setattr(ReplicatedLog, "accept", accept_over_committed)
        result = _run_mutated(
            monkeypatch, "promise-prunes-executed", get_scenario("paxos-leader-churn-chosen-slot")
        )
        assert _verdicts(result) == {
            "linearizability": (1, _PINS["churn/prunes-executed/unguarded/linearizability"]),
            "prefix_agreement": (7, _PINS["churn/prunes-executed/unguarded/prefix_agreement"]),
            "slot_agreement": (335, _PINS["churn/prunes-executed/unguarded/slot_agreement"]),
        }

    def test_epaxos_vote_dedup_mutation_is_caught(self, monkeypatch):
        """Re-seed the pre-fix bug: every delivered PreAccept/Accept reply
        counts as a fresh vote, so retransmissions prematurely satisfy the
        fast-path quorum and conflict edges are lost.  The EPaxos checkers
        must see it under the duplicate-delivery storm."""
        result = _run_mutated(monkeypatch, "vote-dedup", get_scenario("epaxos-duplicate-torture"))
        assert not result.ok
        assert _verdicts(result, "epaxos_") == {
            "epaxos_conflict_ordering": (5, _PINS["torture/conflict_ordering"]),
            "epaxos_execution_consistency": (15, _PINS["torture/consistency"]),
        }

    def test_epaxos_key_index_mutation_is_caught(self, monkeypatch):
        """Re-seed the pre-fix key index: a single last-writer-wins slot per
        key (instead of one per origin replica) silently drops dependency
        edges under contention; replicas then execute conflicting commands
        in different orders."""
        result = _run_mutated(monkeypatch, "key-index", get_scenario("epaxos-hot-key-storm"))
        assert not result.ok
        assert _verdicts(result, "epaxos_") == {
            "epaxos_conflict_ordering": (15824, _PINS["hot-key/key-index/conflict_ordering"]),
            "epaxos_execution_consistency": (30, _PINS["hot-key/key-index/consistency"]),
        }

    def test_epaxos_key_index_mutation_runs_on_batched_epaxos(self, monkeypatch):
        """The re-seeded key index walks batches and skips no-ops like the
        real one: a batched run completes instead of crashing in the flush."""
        result = _run_mutated(monkeypatch, "key-index", get_scenario("epaxos-batched-5"))
        assert not any(v.checker == "runtime" for v in result.violations)
        assert result.completed_requests >= get_scenario("epaxos-batched-5").min_completed
        assert result.counters()["batch.flush.delay"] > 0

    def test_epaxos_forced_noop_recovery_is_caught(self, monkeypatch):
        """A recovery that no-ops every orphan -- ignoring the commit and
        accept evidence its prepare round gathered -- must trip the EPaxos
        invariants: some replica committed (and executed) the real command,
        so the no-op commit diverges from it.  No other mutation trips
        instance agreement."""
        from dataclasses import replace

        scenario = replace(
            get_scenario("epaxos-drop-storm"),
            name="drop-storm-noop-mutation",
            seed=41,
            duration=2.5,
            config_overrides={"recovery_timeout": 0.25},
        )
        result = _run_mutated(monkeypatch, "recovery-noop", scenario)
        assert not result.ok
        assert _verdicts(result, "epaxos_") == {
            "epaxos_instance_agreement": (12, _PINS["noop/instance_agreement"]),
            "epaxos_execution_consistency": (28, _PINS["noop/consistency"]),
            "epaxos_conflict_ordering": (16, _PINS["noop/conflict_ordering"]),
        }

    def test_epaxos_planner_order_mutation_is_caught(self, monkeypatch):
        """A planner that drops the (seq, id) cycle tie-break (sorting by
        instance id alone) executes cycles in the wrong deterministic order;
        the execution-order checker must flag it."""
        result = _run_mutated(monkeypatch, "planner-order", get_scenario("epaxos-hot-key-storm"))
        assert not result.ok
        assert _verdicts(result, "epaxos_") == {
            "epaxos_execution_order": (316, _PINS["hot-key/planner-order/execution_order"]),
            "epaxos_execution_consistency": (30, _PINS["hot-key/planner-order/consistency"]),
        }


#: sha256 of each check's violation messages joined by newlines.  The EPaxos
#: pins were recorded before the checkers were rewritten for fewer calls: the
#: rewrite must report the same violations, word for word and in the same
#: order.  The ``partition/`` and ``churn/`` pins are the Paxos-family
#: mutations.
_PINS = {
    "torture/conflict_ordering":
        "8768c35de2f884988e0efd4477a79e1998520259dea9dd3ab554e6b2399d8101",
    "torture/consistency":
        "a39aeec49a266dfa7dc97ce0d0a77b3eaf2a83228c3fa59fde636ffb68df3a09",
    "hot-key/key-index/conflict_ordering":
        "04295ff9539864ea8e3c6c1cee348b6b4acf0428decb74f6d03ffdf5de07c5e6",
    "hot-key/key-index/consistency":
        "615404f7191e3b9fa110b40cb2e2627fae2a08fd0c42c66e5ac61d4232ef3377",
    "hot-key/planner-order/execution_order":
        "972a6a31aebe68bd65d9cef4d20e2f96efca717931354a1b2b79c16c2bc62f80",
    "hot-key/planner-order/consistency":
        "33229b6c4af171b933579e3d14ab8693eb68af4410f777c46172ef29c0d841f5",
    "noop/instance_agreement":
        "31088a4f57cb0735db93d7bf2082f81d30045e18ed504ea1e12fc7ab73bd4ed4",
    "noop/consistency":
        "1b690ca4b4f852988c2588e86ed1ca29f414d8d64bb68be539f300cc0474c28f",
    "noop/conflict_ordering":
        "76400190b39900ccf2d14bfb0deda6288a52e38d7b4c24537afd9486ad29f853",
    "partition/quorum-one/linearizability":
        "4ebf2eb75d6b2fcac96e9b0a2751b9995ab09e224763cf620641d353e44d51e6",
    "partition/quorum-one/prefix_agreement":
        "7cc5486ce242ba20cc32b3becf5fb215b76d8fea84eb5af7617d9258def9621f",
    "partition/quorum-one/quorum_sanity":
        "e1414d4452f66a5ff4fee6e97f4c94e7ecb57a352685bb1aa9e5311b31782970",
    "partition/quorum-one/slot_agreement":
        "c39f288416efcc7de9049b1facb84f5e2c9492ceaeecdb0c85167397e2623d37",
    "partition/count-early/prefix_agreement":
        "a3d906a75cd70928e963b5f38194dc04d8588aa13197600556e6c01347378afe",
    "partition/count-early/progress":
        "cbf7cfc1872762ad1a274924e401c16e7f5d1c38b7d3f4629450dcbf3e483998",
    "partition/count-early/runtime":
        "f1fe2e32069e1c57c3bcfd2dda8bcccfd976770bd5b1cb8d8145e9d3a9cf2fa4",
    "churn/prunes-executed/runtime":
        "86c4bf6bf21186cdcffd4f173b99558d0496679fef14f3c55a1bfaad010401c7",
    "churn/prunes-executed/unguarded/linearizability":
        "a6c0d61d97037a7e5abd85484236d1e8846e8b733d875903bd6141eaaeee8964",
    "churn/prunes-executed/unguarded/prefix_agreement":
        "4794b980af237afbe9caee24373d8b41d181c1d91ab85f75547ddadb4b4dfd27",
    "churn/prunes-executed/unguarded/slot_agreement":
        "50e6e59094712338494d69ac5ad2047dd71fbd257e4e0641052382289599601f",
    "partition/count-early/slot_agreement":
        "a4e18afa54d7d75fc2a556c23a1ab167774347d16c9fec1d794b33b134d68288",
}


def _run_mutated(monkeypatch, mutation, scenario):
    """Run ``scenario`` under ``mutation`` with command uids counted from 1.

    Uids are process-global and violation messages name them, so a fresh
    count is what makes the pinned message digests independent of the
    tests that ran earlier in the process.
    """
    monkeypatch.setattr(command_module, "_command_uids", itertools.count(1))
    with apply_mutation(mutation):
        return run_scenario(scenario)


def _verdicts(result, prefix=""):
    """Check -> (violation count, sha256 of its messages joined by newlines).

    Only the checks whose id starts with ``prefix`` are reported.
    """
    messages = {}
    for violation in result.violations:
        if violation.checker.startswith(prefix):
            messages.setdefault(violation.checker, []).append(violation.message)
    return {
        checker: (len(found), hashlib.sha256("\n".join(found).encode("utf-8")).hexdigest())
        for checker, found in messages.items()
    }


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

    def test_same_seed_simulators_rerun_identically(self):
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

        first = drive(Simulator(seed=99))
        assert first == drive(Simulator(seed=99))
        assert first != drive(Simulator(seed=100))


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

    def test_nan_event_time_rejected(self):
        # NaN fails every comparison, so only a `not at >= 0` check rejects it.
        with pytest.raises(ConfigurationError, match="event time"):
            ScenarioEvent.crash(float("nan"), node=0)

    @pytest.mark.parametrize("field", ["duration", "client_timeout"])
    def test_nan_scenario_durations_rejected(self, field):
        with pytest.raises(ConfigurationError, match=field):
            Scenario(name="nan", **{field: float("nan")})

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
        with pytest.raises(ConfigurationError):
            ScenarioEvent.sluggish(0.5, node=1, factor=float("nan"))

    def test_epaxos_accepts_only_session_window_override(self):
        from repro.scenarios.runner import ScenarioRunner

        good = Scenario(name="ok", protocol="epaxos", duration=0.2,
                        checks=("linearizability",),
                        config_overrides={"session_window": 8})
        cluster = ScenarioRunner(good).build()
        assert cluster.nodes[0].replica.store.window == 8

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
        cluster = build_cluster(
            scenario.protocol,
            num_nodes=scenario.num_nodes,
            num_clients=scenario.num_clients,
            seed=scenario.seed,
            workload=scenario.workload,
            protocol_config=scenario.config_overrides,
            relay_groups=scenario.relay_groups,
            client_timeout=scenario.client_timeout,
        )
        cluster.run(scenario.duration)
        direct = ScenarioResult(
            scenario=scenario,
            cluster=cluster,
            history=cluster.history(),
            violations=[],
            completed_requests=cluster.total_completed_requests(),
            events_processed=cluster.sim.events_processed,
            virtual_duration=cluster.sim.now,
        )
        assert direct.fingerprint() == via_runner.fingerprint()


#: The cheapest library scenario (4 nodes, one client, well under a second).
CHEAPEST = "epaxos-even-cluster-retry"


@pytest.fixture
def broken_epaxos(monkeypatch):
    """Patched on the class, so every EPaxos cluster built afterwards raises."""
    from repro.epaxos.replica import EPaxosReplica

    def broken(self, src, msg):
        raise AttributeError("mutated handler")

    monkeypatch.setattr(EPaxosReplica, "_on_preaccept_reply", broken)


class TestScenarioCli:
    def test_list_exits_zero(self, capsys):
        assert cli.main(["--list"]) == 0
        assert CHEAPEST in capsys.readouterr().out

    def test_run_of_a_passing_scenario_exits_zero(self, capsys):
        assert cli.main(["--run", CHEAPEST]) == 0
        assert capsys.readouterr().out.startswith(f"{CHEAPEST}: OK, ")

    @pytest.mark.parametrize("argv", [
        ["--run", "no-such-scenario"],
        ["--run", CHEAPEST, "--protocol", "paxos"],
    ])
    def test_unknown_or_mismatched_scenario_exits_two(self, argv, capsys):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_selection_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "SHARDED_SMOKE_SCENARIOS", ("epaxos-sharded-4",))
        assert cli.main(["--sharded", "--smoke", "--protocol", "paxos"]) == 2
        assert "no smoke scenarios (sharded) for protocol 'paxos'" in capsys.readouterr().err

    def test_run_prints_what_a_sweep_over_the_one_scenario_prints(self, monkeypatch, capsys):
        assert cli.main(["--run", CHEAPEST]) == 0
        run = capsys.readouterr().out
        monkeypatch.setattr(cli, "SMOKE_SCENARIOS", (CHEAPEST,))
        assert cli.main(["--smoke"]) == 0
        assert capsys.readouterr().out == run

    def test_a_crashing_run_prints_crashed_and_exits_one(self, broken_epaxos, capsys):
        assert cli.main(["--run", CHEAPEST]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"{CHEAPEST}: CRASHED, ")
        assert f"    [crash] {CHEAPEST} seed 42: AttributeError: mutated handler\n" in out

    def test_a_crashing_fuzz_seed_prints_crashed_and_exits_one(self, broken_epaxos, capsys):
        from repro.fuzz.__main__ import main as fuzz_main

        assert fuzz_main(["--seed", "2", "--protocols", "epaxos"]) == 1
        assert capsys.readouterr().out.startswith("fuzz-2: CRASHED, ")
