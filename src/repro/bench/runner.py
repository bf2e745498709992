"""Single-run experiment execution.

``run_experiment`` builds a cluster from an :class:`ExperimentConfig`, runs
it for the configured virtual duration, and aggregates client-side latency
and throughput over the measurement window (excluding warm-up and the final
cool-down, as benchmarking practice -- and the Paxi benchmark -- do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.bench.results import RunResult
from repro.cluster.builder import Cluster, build_cluster
from repro.cluster.cpu import NodeCPUModel
from repro.cluster.faults import FaultSchedule
from repro.errors import BenchmarkError
from repro.net.topology import Topology
from repro.protocol.resolver import ConfigLike
from repro.workload.spec import WorkloadSpec


@dataclass
class ExperimentConfig:
    """Everything needed to run one benchmark point."""

    protocol: str = "pigpaxos"
    num_nodes: int = 5
    num_clients: int = 20
    duration: float = 1.0
    warmup: float = 0.2
    cooldown: float = 0.05
    seed: int = 1
    relay_groups: Optional[int] = None
    workload: WorkloadSpec = field(default_factory=WorkloadSpec.paper_default)
    topology: Optional[Topology] = None
    protocol_config: ConfigLike = None
    cpu_model: Optional[NodeCPUModel] = None
    fault_schedule: Optional[FaultSchedule] = None
    use_region_groups: bool = False
    extra: Dict[str, object] = field(default_factory=dict)

    def with_clients(self, num_clients: int) -> "ExperimentConfig":
        return replace(self, num_clients=num_clients)

    def with_protocol(self, protocol: str) -> "ExperimentConfig":
        return replace(self, protocol=protocol)

    def label(self) -> str:
        parts = [self.protocol, f"n={self.num_nodes}"]
        if self.relay_groups is not None:
            parts.append(f"r={self.relay_groups}")
        return " ".join(parts)


def build_from_config(config: ExperimentConfig) -> Cluster:
    """Build (but do not run) the cluster described by ``config``."""
    return build_cluster(
        protocol=config.protocol,
        num_nodes=config.num_nodes,
        num_clients=config.num_clients,
        seed=config.seed,
        relay_groups=config.relay_groups,
        workload=config.workload,
        topology=config.topology,
        protocol_config=config.protocol_config,
        cpu_model=config.cpu_model,
        fault_schedule=config.fault_schedule,
        use_region_groups=config.use_region_groups,
    )


def run_experiment(config: ExperimentConfig, cluster: Optional[Cluster] = None) -> RunResult:
    """Run one benchmark point and aggregate its client-side measurements."""
    if config.duration <= config.warmup + config.cooldown:
        raise BenchmarkError("duration must exceed warmup + cooldown")
    cluster = cluster or build_from_config(config)
    cluster.run(config.duration)

    window_start = config.warmup
    window_end = config.duration - config.cooldown
    measured_window = window_end - window_start

    latencies: List[float] = []
    completed = 0
    retries = 0
    for client in cluster.clients:
        retries += client.stats.retries
        for completed_at, latency in client.stats.completions:
            if window_start <= completed_at <= window_end:
                completed += 1
                latencies.append(latency)

    latencies.sort()
    throughput = completed / measured_window if measured_window > 0 else 0.0

    def percentile(p: float) -> float:
        if not latencies:
            return 0.0
        rank = (p / 100.0) * (len(latencies) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return latencies[int(rank)]
        fraction = rank - low
        return latencies[low] * (1 - fraction) + latencies[high] * fraction

    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    extra = dict(config.extra)
    if config.relay_groups is not None:
        extra.setdefault("relay_groups", config.relay_groups)
    extra.setdefault("value_size", config.workload.value_size)

    return RunResult(
        protocol=config.protocol,
        num_nodes=config.num_nodes,
        num_clients=config.num_clients,
        duration=config.duration,
        measured_window=measured_window,
        completed_requests=completed,
        throughput=throughput,
        latency_mean=mean_latency,
        latency_p50=percentile(50),
        latency_p95=percentile(95),
        latency_p99=percentile(99),
        latency_max=latencies[-1] if latencies else 0.0,
        client_retries=retries,
        extra=extra,
    )
