"""Benchmark result records.

``RunResult`` summarizes one cluster run at one load level (it is what
:meth:`repro.scenarios.ScenarioResult.stats` fills); a client-count sweep is
a list of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class RunResult:
    """Aggregated measurements of one benchmark run."""

    protocol: str
    num_nodes: int
    num_clients: int
    duration: float
    measured_window: float
    completed_requests: int
    throughput: float
    latency_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_max: float
    client_retries: int = 0

    @property
    def latency_mean_ms(self) -> float:
        return self.latency_mean * 1000.0

    @property
    def latency_p99_ms(self) -> float:
        return self.latency_p99 * 1000.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "num_nodes": self.num_nodes,
            "num_clients": self.num_clients,
            "duration": self.duration,
            "measured_window": self.measured_window,
            "completed_requests": self.completed_requests,
            "throughput": self.throughput,
            "latency_mean_ms": self.latency_mean_ms,
            "latency_p50_ms": self.latency_p50 * 1000.0,
            "latency_p95_ms": self.latency_p95 * 1000.0,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_max_ms": self.latency_max * 1000.0,
            "client_retries": self.client_retries,
        }

    def row(self) -> str:
        """A human-readable one-line summary."""
        return (
            f"{self.protocol:>9} n={self.num_nodes:<3} clients={self.num_clients:<4} "
            f"tput={self.throughput:9.1f} req/s  lat(mean/p50/p99)="
            f"{self.latency_mean_ms:6.2f}/{self.latency_p50 * 1000:6.2f}/{self.latency_p99_ms:6.2f} ms"
        )
