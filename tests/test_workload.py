"""Unit tests for workload specs, key distributions, generators and clients."""

from __future__ import annotations

import random

import pytest

from repro.cluster.builder import build_cluster
from repro.errors import WorkloadError
from repro.statemachine.command import OpType
from repro.scenarios import Scenario, run_scenario
from repro.workload.distributions import UniformKeys, ZipfianKeys, make_distribution
from repro.workload.generator import CommandGenerator
from repro.workload.spec import WorkloadSpec


class TestWorkloadSpec:
    def test_paper_default_matches_evaluation_setup(self):
        spec = WorkloadSpec.paper_default()
        assert spec.num_keys == 1000
        assert spec.key_size == 8
        assert spec.value_size == 8
        assert spec.read_ratio == 0.5
        assert spec.distribution == "uniform"

    def test_payload_preset_is_write_only(self):
        spec = WorkloadSpec.payload(1280)
        assert spec.read_ratio == 0.0
        assert spec.value_size == 1280

    def test_invalid_values_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(num_keys=0)
        with pytest.raises(WorkloadError):
            WorkloadSpec(read_ratio=1.5)
        with pytest.raises(WorkloadError):
            WorkloadSpec(distribution="latest")
        with pytest.raises(WorkloadError):
            WorkloadSpec(distribution="zipfian", zipf_theta=float("nan"))


class TestDistributions:
    def test_uniform_covers_key_space(self):
        distribution = UniformKeys(10)
        rng = random.Random(0)
        seen = {distribution.next_index(rng) for _ in range(500)}
        assert seen == set(range(10))

    def test_only_uniform_and_zipfian_exist(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(distribution="sequential")
        with pytest.raises(WorkloadError):
            make_distribution("sequential", 10)

    def test_zipfian_skews_towards_low_ranks(self):
        distribution = ZipfianKeys(100, theta=1.2)
        rng = random.Random(1)
        draws = [distribution.next_index(rng) for _ in range(2000)]
        head = sum(1 for d in draws if d < 10)
        assert head > len(draws) * 0.4

    def test_factory_rejects_unknown_name(self):
        with pytest.raises(WorkloadError):
            make_distribution("pareto", 10)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(WorkloadError):
            UniformKeys(0)
        with pytest.raises(WorkloadError):
            ZipfianKeys(10, theta=0)
        with pytest.raises(WorkloadError):
            ZipfianKeys(10, theta=float("nan"))


class TestCommandGenerator:
    def test_request_ids_are_sequential(self):
        generator = CommandGenerator(WorkloadSpec.paper_default(), client_id=7, rng=random.Random(0))
        commands = [generator.next_command() for _ in range(5)]
        assert [c.request_id for c in commands] == [1, 2, 3, 4, 5]
        assert all(c.client_id == 7 for c in commands)

    def test_read_ratio_respected(self):
        spec = WorkloadSpec(read_ratio=0.0)
        generator = CommandGenerator(spec, client_id=1, rng=random.Random(0))
        assert all(generator.next_command().op is OpType.PUT for _ in range(50))
        spec = WorkloadSpec(read_ratio=1.0)
        generator = CommandGenerator(spec, client_id=1, rng=random.Random(0))
        assert all(generator.next_command().op is OpType.GET for _ in range(50))

    def test_value_size_carried_on_writes(self):
        spec = WorkloadSpec(read_ratio=0.0, value_size=1280)
        generator = CommandGenerator(spec, client_id=1, rng=random.Random(0))
        assert generator.next_command().payload_size == 1280

    def test_keys_within_key_space(self):
        spec = WorkloadSpec(num_keys=10)
        generator = CommandGenerator(spec, client_id=1, rng=random.Random(0))
        keys = {generator.next_command().key for _ in range(200)}
        assert len(keys) <= 10


class TestClosedLoopClientIntegration:
    def test_clients_complete_requests_and_record_latency(self):
        cluster = build_cluster(protocol="paxos", num_nodes=3, num_clients=2, seed=5)
        cluster.run(0.3)
        for client in cluster.clients:
            assert client.stats.completions
            assert all(latency > 0 for _, latency in client.stats.completions)

    def test_closed_loop_keeps_one_outstanding_request(self):
        cluster = build_cluster(protocol="paxos", num_nodes=3, num_clients=1, seed=5)
        cluster.run(0.3)
        client = cluster.clients[0]
        assert client.stats.sent - len(client.stats.completions) <= 1 + client.stats.retries

    def test_stats_pools_every_completion_exactly_once(self):
        result = run_scenario(Scenario(
            name="pool", protocol="pigpaxos", num_nodes=5, num_clients=2,
            duration=0.3, seed=5, relay_groups=2,
        ))
        latencies = [
            latency for client in result.cluster.clients for _, latency in client.stats.completions
        ]
        stats = result.stats()
        assert latencies
        assert stats.completed_requests == len(latencies) == result.cluster.total_completed_requests()
        assert stats.latency_mean == pytest.approx(sum(latencies) / len(latencies))
        assert stats.latency_max == max(latencies)
