"""Benchmark result records.

``RunResult`` summarizes one cluster run at one load level (it is what
:meth:`repro.scenarios.ScenarioResult.stats` fills); ``SweepResult`` collects
the runs of a client-count sweep and exposes the latency/throughput series
plotted in the paper's figures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def row(self) -> str:
        """A human-readable one-line summary."""
        return (
            f"{self.protocol:>9} n={self.num_nodes:<3} clients={self.num_clients:<4} "
            f"tput={self.throughput:9.1f} req/s  lat(mean/p50/p99)="
            f"{self.latency_mean_ms:6.2f}/{self.latency_p50 * 1000:6.2f}/{self.latency_p99_ms:6.2f} ms"
        )


@dataclass
class SweepResult:
    """Results of varying the offered load (number of closed-loop clients)."""

    label: str
    runs: List[RunResult] = field(default_factory=list)

    def add(self, run: RunResult) -> None:
        self.runs.append(run)

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    # ------------------------------------------------------------------ series
    def latency_throughput_series(self, percentile: str = "mean") -> List[Tuple[float, float]]:
        """(throughput, latency_ms) points, in the order the sweep was run."""
        series = []
        for run in self.runs:
            if percentile == "mean":
                latency = run.latency_mean
            elif percentile == "p50":
                latency = run.latency_p50
            elif percentile == "p99":
                latency = run.latency_p99
            else:
                raise ValueError(f"unknown percentile {percentile!r}")
            series.append((run.throughput, latency * 1000.0))
        return series

    def max_throughput(self) -> float:
        return max((run.throughput for run in self.runs), default=0.0)

    def best_run(self) -> Optional[RunResult]:
        if not self.runs:
            return None
        return max(self.runs, key=lambda run: run.throughput)

    def summary(self) -> str:
        lines = [f"== {self.label} =="]
        lines.extend(run.row() for run in self.runs)
        return "\n".join(lines)
