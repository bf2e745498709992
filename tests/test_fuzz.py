"""Fuzz-tier gates: grammar determinism, shrinking, mutation calibration.

The fuzzer's value rests on three properties, each pinned here:

* **Determinism** -- the same fuzz seed regenerates a bit-identical
  ``Scenario``, so any finding is replayable from its seed alone.
* **Shrinking** -- a checker-violating schedule shrinks to a strictly
  smaller scenario that still trips the same checker family, and the
  emitted literal round-trips back into an equal scenario.
* **Calibration** -- with each of the three re-seeded historical EPaxos
  bugs patched in (``repro.fuzz.mutations``), the fleet actually finds a
  violation within a few seeds; a fuzzer that cannot re-find known bugs
  proves nothing when it runs clean.

Plus the parallel sweep contract: ``sweep(..., parallel=N)`` must produce
the same per-scenario fingerprints as the serial path, in the same order.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from helpers import library_run
from repro.errors import ConfigurationError
from repro.fuzz import (
    DEFAULT_PROFILE,
    MUTATIONS,
    FuzzProfile,
    apply_mutation,
    generate_scenario,
    run_fleet,
    scenario_literal,
    shrink,
)
from repro.fuzz.shrink import _cost
from repro.scenarios.library import EPAXOS_CHECK_NAMES, get_scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import Scenario, ScenarioEvent
from repro.scenarios.sweep import SweepOutcome, run_outcome, sweep
from repro.workload.spec import WorkloadSpec

#: Cheapest fuzz seed per mutation whose generated schedule violates a
#: checker under that mutation (epaxos-only profile; found by sweeping
#: seeds from 0 and pinned so the calibration tests stay fast).
CALIBRATION_SEEDS = {
    "vote-dedup": 12,
    "key-index": 1,
    "planner-order": 0,
}

EPAXOS_PROFILE = replace(DEFAULT_PROFILE, protocols=("epaxos",))


# ---------------------------------------------------------------- grammar
class TestGrammar:
    def test_same_seed_same_schedule(self):
        for seed in (0, 7, 42, 1234, 99999):
            assert generate_scenario(seed) == generate_scenario(seed)

    def test_same_seed_same_literal(self):
        for seed in (3, 42):
            a = scenario_literal(generate_scenario(seed))
            b = scenario_literal(generate_scenario(seed))
            assert a == b

    def test_seeds_generate_distinct_schedules(self):
        schedules = {scenario_literal(generate_scenario(seed)) for seed in range(20)}
        assert len(schedules) > 15  # collisions would mean a broken RNG feed

    def test_many_seeds_build_valid_scenarios(self):
        # Scenario/ScenarioEvent validate on construction, so building is
        # the property; spot-check the profile's promises on top.
        for seed in range(120):
            scenario = generate_scenario(seed)
            assert scenario.protocol in DEFAULT_PROFILE.protocols
            assert 3 <= scenario.num_nodes <= 25
            assert scenario.seed == seed
            assert len(scenario.events) <= DEFAULT_PROFILE.max_events
            for event in scenario.events:
                assert 0 < event.at < scenario.duration

    def test_profile_restricts_protocols(self):
        for seed in range(30):
            assert generate_scenario(seed, EPAXOS_PROFILE).protocol == "epaxos"

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            FuzzProfile(protocols=("raft",))
        with pytest.raises(ConfigurationError):
            FuzzProfile(min_events=5, max_events=2)

    def test_client_timeout_must_be_positive(self):
        # Fuzz-found: client_timeout=None used to crash deep inside the
        # client's timer scheduling instead of failing validation.
        with pytest.raises(ConfigurationError):
            Scenario(name="bad", client_timeout=None)
        with pytest.raises(ConfigurationError):
            Scenario(name="bad", client_timeout=0.0)


# ---------------------------------------------------------------- mutations
class TestMutations:
    def test_unknown_mutation_rejected(self):
        with pytest.raises(KeyError):
            with apply_mutation("no-such-bug"):
                pass

    def test_none_is_noop(self):
        with apply_mutation(None):
            pass

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutations_are_reversible(self, name):
        from repro.epaxos.graph import DependencyGraph
        from repro.epaxos.replica import EPaxosReplica
        from repro.paxos.replica import MultiPaxosReplica
        from repro.protocol.base import Replica

        def patch_points():
            return (
                EPaxosReplica.__dict__["_register_vote"],
                EPaxosReplica.__dict__["_record_key"],
                EPaxosReplica.__dict__["_record_prepare_reply"],
                DependencyGraph.__dict__["execution_order"],
                EPaxosReplica.__dict__["_apply_command"],
                MultiPaxosReplica.__dict__["_apply_command"],
                Replica.__dict__["_reply_to_clients"],
            )

        before = patch_points()
        with apply_mutation(name):
            assert patch_points() != before  # the patch actually landed
        assert patch_points() == before

    # The two batched-reply-path mutations are pinned against fixed batched
    # scenarios in test_batching.py instead of fuzz seeds.
    @pytest.mark.parametrize("name", sorted(CALIBRATION_SEEDS))
    def test_fleet_refinds_reseeded_bug(self, name):
        seed = CALIBRATION_SEEDS[name]
        report = run_fleet(
            start_seed=seed,
            count=1,
            profile=EPAXOS_PROFILE,
            mutation=name,
            shrink_findings=False,
        )
        assert len(report.findings) == 1
        assert report.findings[0].checkers  # names the violated checkers


# ---------------------------------------------------------------- shrinker
class TestShrinker:
    def test_shrink_requires_a_violation(self):
        clean = get_scenario("epaxos-baseline-5")
        with pytest.raises(ValueError):
            shrink(clean)

    def test_shrink_preserves_checker_and_reduces_cost(self):
        # key-index on its calibration seed: the cheapest real violation.
        seed = CALIBRATION_SEEDS["key-index"]
        scenario = generate_scenario(seed, EPAXOS_PROFILE)
        with apply_mutation("key-index"):
            result = shrink(scenario, max_runs=60)
            still = {v.checker for v in run_scenario(result.shrunk).violations}
        assert still & result.checkers, "shrunk repro stopped violating"
        assert _cost(result.shrunk) < _cost(scenario)
        assert result.runs <= 60
        assert result.shrunk.name == f"{scenario.name}-min"

    def test_shrink_is_deterministic(self):
        seed = CALIBRATION_SEEDS["planner-order"]
        scenario = generate_scenario(seed, EPAXOS_PROFILE)
        with apply_mutation("planner-order"):
            a = shrink(scenario, max_runs=40)
            b = shrink(scenario, max_runs=40)
        assert a.shrunk == b.shrunk
        assert a.steps == b.steps


# ---------------------------------------------------------------- literal
class TestScenarioLiteral:
    def _roundtrip(self, scenario):
        source = scenario_literal(scenario)
        namespace = {
            "Scenario": Scenario,
            "E": ScenarioEvent,
            "WorkloadSpec": WorkloadSpec,
            "EPAXOS_CHECK_NAMES": EPAXOS_CHECK_NAMES,
        }
        return eval(source, namespace)  # noqa: S307 - our own emitted source

    @pytest.mark.parametrize("seed", [0, 1, 12, 42, 77, 1234])
    def test_fuzzed_scenarios_round_trip(self, seed):
        scenario = generate_scenario(seed)
        assert self._roundtrip(scenario) == scenario

    def test_library_scenario_round_trips(self):
        scenario = get_scenario("epaxos-even-cluster-retry")
        assert self._roundtrip(scenario) == scenario


# ---------------------------------------------------------------- regression
class TestFuzzFoundRegressions:
    def test_even_cluster_retry_repro_passes(self):
        # The shrunk seed-42 repro: even-cluster fast quorums + WAN client
        # retries.  Green only because FastQuorum floors the fast path at
        # a majority; see test_quorum.py for the size-level pin.
        run = library_run("epaxos-even-cluster-retry")
        assert run.ok, run.violations
        assert run.completed_requests >= 10

    def test_deposed_leader_phantom_read_repro_passes(self):
        # The shrunk fleet-seed-257 repro: a deposed PigPaxos leader whose
        # slot was NoOp-filled by the takeover must not acknowledge the
        # orphaned client command with the NoOp's empty result.
        run = library_run("pig-deposed-leader-phantom-read")
        assert run.ok, run.violations
        assert run.completed_requests >= 40

    def test_region_partition_recovery_repro_passes(self):
        # The shrunk fleet-seed-462 repro: explicit-prepare recovery under a
        # region partition must respect latest-per-origin deps semantics in
        # its fast-commit disproof.
        run = library_run("epaxos-region-partition-recovery")
        assert run.ok, run.violations
        assert run.completed_requests >= 10


# ---------------------------------------------------------------- parallel
class TestParallelSweep:
    NAMES = ("pig-lossy-background", "epaxos-thrifty-severed-links",
             "epaxos-drop-storm")

    def test_parallel_matches_serial(self):
        scenarios = [get_scenario(name) for name in self.NAMES]
        serial = sweep(scenarios)
        parallel = sweep(scenarios, parallel=2)
        assert [o.name for o in parallel] == [o.name for o in serial]
        assert [o.fingerprint for o in parallel] == [o.fingerprint for o in serial]
        assert all(o.ok for o in parallel)

    def test_outcome_is_picklable(self):
        import pickle

        outcome = run_outcome(get_scenario("pig-lossy-background"))
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone == outcome
        assert isinstance(clone, SweepOutcome)
