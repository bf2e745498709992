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
* ``repro.workload`` -- the Paxi-style load: closed-loop clients and key
  distributions.
* ``repro.bench`` -- result records and table/chart formatters only; it
  builds and runs nothing.
* ``repro.analysis`` -- the paper's analytical message-load model
  (Tables 1 and 2, Section 6).
* ``repro.scenarios`` / ``repro.checkers`` -- the one experiment harness:
  a declarative ``Scenario`` (cluster shape, workload, fault schedule)
  compiled onto the simulator, post-hoc safety checkers (per-key
  linearizability of recorded client histories, cross-replica log
  invariants), and the windowed measurements of the run::

      from repro import Scenario, run_scenario
      print(run_scenario(Scenario(name="demo")).stats(start=0.2).row())
"""

from repro.version import __version__
from repro.cluster.builder import build_cluster
from repro.bench.results import RunResult
from repro.scenarios import Scenario, run_scenario
from repro.workload.spec import WorkloadSpec
from repro.analysis.model import (
    messages_at_leader,
    messages_at_follower,
    leader_overhead,
    message_load_table,
)

__all__ = [
    "__version__",
    "build_cluster",
    "Scenario",
    "run_scenario",
    "RunResult",
    "WorkloadSpec",
    "messages_at_leader",
    "messages_at_follower",
    "leader_overhead",
    "message_load_table",
]
