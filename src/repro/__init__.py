"""PigPaxos reproduction library.

This package reproduces the system described in "PigPaxos: Devouring the
Communication Bottlenecks in Distributed Consensus" (Charapko, Ailijiang,
Demirbas, SIGMOD 2021).  It contains:

* ``repro.overlay`` -- the paper's contribution as a pluggable fan-out
  layer: relay groups, per-round random relay selection, in-network
  aggregation, relay timeouts and partial response collection.
* ``repro.paxos`` -- Multi-Paxos with a stable leader and commit
  piggybacking; PigPaxos is this replica over the relay overlay plus the
  leader round retry (the ``"pigpaxos"`` preset, ``repro.protocol.resolver``).
* ``repro.epaxos`` -- the EPaxos baseline (pre-accept/accept/commit with
  dependency tracking and SCC-ordered execution).
* ``repro.sim`` / ``repro.net`` / ``repro.cluster`` -- the deterministic
  discrete-event substrate standing in for the paper's Paxi/EC2 testbed.
* ``repro.statemachine`` / ``repro.quorum`` -- replicated log, in-memory
  key-value store and quorum systems.
* ``repro.workload`` / ``repro.bench`` -- the Paxi-style benchmark:
  closed-loop clients, key distributions, latency/throughput sweeps.
* ``repro.analysis`` -- the paper's analytical message-load model
  (Tables 1 and 2, Section 6).
* ``repro.runtime`` -- an asyncio TCP runtime running the same protocol
  classes over real sockets.
* ``repro.scenarios`` / ``repro.checkers`` -- deterministic adversarial
  scenario engine (declarative fault schedules compiled onto the
  simulator) and post-hoc safety checkers (per-key linearizability of
  recorded client histories, cross-replica log invariants).
"""

from repro.version import __version__
from repro.cluster.builder import ClusterBuilder, build_cluster
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.bench.results import RunResult
from repro.workload.spec import WorkloadSpec
from repro.analysis.model import (
    messages_at_leader,
    messages_at_follower,
    leader_overhead,
    message_load_table,
)

__all__ = [
    "__version__",
    "ClusterBuilder",
    "build_cluster",
    "ExperimentConfig",
    "run_experiment",
    "RunResult",
    "WorkloadSpec",
    "messages_at_leader",
    "messages_at_follower",
    "leader_overhead",
    "message_load_table",
]
