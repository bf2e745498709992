"""Per-node CPU cost model.

The simulator's stand-in for the paper's m5a.large instances.  A node is a
single-server queue; the costs below are the service times of the work items
that queue on it.  The defaults were calibrated against the ~2,000 req/s
at which the paper's 25-node Multi-Paxos cluster saturates; the simulated
one peaks at 2,893 req/s at 300 clients (cell ``fig8-paxos-c300`` of
``benchmarks/results/SCORECARD.md``, read by row ``fig8.pig-over-paxos``).
The leader's per-request cost is dominated by the 2(N-1) messages it
exchanges -- the exact bottleneck structure of the paper's analytical
model (Section 6.1).

``epaxos_bookkeeping_cost`` deserves a note: a pure message-count model makes
EPaxos look artificially good because its messages are spread over all nodes.
The paper (and the authors' earlier Paxi study) attribute EPaxos' poor
throughput to per-command dependency bookkeeping and conflict resolution
performed at *every* node; this constant stands in for that work and is
calibrated against the published EPaxos saturation points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class NodeCPUModel:
    """Service times (seconds) for the work items processed by a node."""

    recv_per_message: float = 7.5e-6
    send_per_message: float = 7.5e-6
    per_byte: float = 1.0e-9
    execute_per_command: float = 20e-6
    graph_per_vertex: float = 8e-6
    client_request_extra: float = 25e-6
    epaxos_bookkeeping_cost: float = 550e-6

    def __post_init__(self) -> None:
        for name in (
            "recv_per_message",
            "send_per_message",
            "per_byte",
            "execute_per_command",
            "graph_per_vertex",
            "client_request_extra",
            "epaxos_bookkeeping_cost",
        ):
            if not getattr(self, name) >= 0:  # NaN fails every comparison
                raise ConfigurationError(f"{name} must be non-negative")

    # ------------------------------------------------------------------ costs
    def graph_cost(self, vertices: int) -> float:
        return self.graph_per_vertex * vertices

    def scaled(self, factor: float) -> "NodeCPUModel":
        """A uniformly slower/faster copy of this model (sluggish-node faults)."""
        if not factor > 0:
            raise ConfigurationError("scale factor must be positive")
        return NodeCPUModel(
            recv_per_message=self.recv_per_message * factor,
            send_per_message=self.send_per_message * factor,
            per_byte=self.per_byte * factor,
            execute_per_command=self.execute_per_command * factor,
            graph_per_vertex=self.graph_per_vertex * factor,
            client_request_extra=self.client_request_extra * factor,
            epaxos_bookkeeping_cost=self.epaxos_bookkeeping_cost * factor,
        )
