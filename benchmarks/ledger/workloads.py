"""The ledger's eight workloads, declared on the public scenario surface.

Each workload is one closed-loop :class:`~repro.scenarios.Scenario` (the
paper's Paxi clients: a client sends its next request only after the
previous reply).  All use the ``WorkloadSpec.checking_default`` shape --
50 % reads, unique values -- so the full checker set applies, plus a
``progress`` floor at about half the completions probed at seed 1.

Sizes are calibrated so one repetition costs about one CPU-second on a
2-core shared box; the latency percentiles pool the measurement windows
of all repetitions of a run (see ``run.py``), which is what keeps at
least 1 000 samples behind every ``sim_p99_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.scenarios import Scenario, ScenarioEvent
from repro.workload.spec import WorkloadSpec

PAXOS_CHECKS = ("linearizability", "log_invariants", "progress")
EPAXOS_CHECKS = ("linearizability", "epaxos_invariants", "progress")

#: Simulated-clock metrics stop this long before the end of a run, so
#: operations cut off by the end of the simulation never shape a gap.
WINDOW_TAIL = 0.02


def _checking(num_keys: int = 25, distribution: str = "uniform") -> WorkloadSpec:
    return replace(
        WorkloadSpec.checking_default(num_keys=num_keys), distribution=distribution
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario template plus its measurement window."""

    scenario: Scenario
    warmup: float
    why: str

    @property
    def name(self) -> str:
        return self.scenario.name

    def instantiate(self, seed: int, shrink: int = 1) -> Tuple[Scenario, float, float]:
        """The scenario for ``seed`` and its window ``(start, end)``.

        ``shrink`` divides every simulated time (``--quick`` uses 3); a
        shrunk run keeps the checkers but only asks ``progress`` for one
        completed operation, since warm-up no longer amortises.
        """
        base = self.scenario
        duration = base.duration / shrink
        scenario = replace(
            base,
            seed=seed,
            duration=duration,
            events=tuple(replace(event, at=event.at / shrink) for event in base.events),
            min_completed=base.min_completed if shrink == 1 else 1,
        )
        return scenario, self.warmup / shrink, duration - WINDOW_TAIL / shrink


_WORKLOADS = (
    Workload(
        Scenario(
            name="lan25_pig",
            protocol="pigpaxos",
            num_nodes=25,
            relay_groups=3,
            num_clients=48,
            duration=0.19,
            checks=PAXOS_CHECKS,
            min_completed=600,
        ),
        warmup=0.08,
        why="Paper headline (Fig. 8): 25-node LAN PigPaxos, 3 relay groups, 48 clients; "
        "overlay/ relay aggregation sets the saturated leader's load.",
    ),
    Workload(
        Scenario(
            name="lan25_paxos",
            protocol="paxos",
            num_nodes=25,
            num_clients=48,
            duration=0.8,
            checks=PAXOS_CHECKS,
            min_completed=800,
        ),
        warmup=0.15,
        why="Control that bypasses the relay overlay: direct fan-out on the same cluster, "
        "net/ send and cluster/ deliver dominate; a relay change must not move it.",
    ),
    Workload(
        Scenario(
            name="lan25_paxos_batch8",
            protocol="paxos",
            num_nodes=25,
            num_clients=48,
            duration=0.45,
            config_overrides={"batch_max_commands": 8, "pipeline_depth": 2},
            checks=PAXOS_CHECKS,
            min_completed=2200,
        ),
        warmup=0.1,
        why="Same paxos/ layer batched (8 commands, pipeline 2): statemachine/ CommandBatch "
        "and paxos/ dominate host time; shows a batching gain that costs the unbatched path.",
    ),
    Workload(
        Scenario(
            name="planet81_pig",
            protocol="pigpaxos",
            num_nodes=81,
            hierarchy=(3, 3),
            use_region_groups=True,
            num_clients=16,
            duration=1.8,
            config_overrides={"relay_levels": 2},
            checks=PAXOS_CHECKS,
            min_completed=180,
        ),
        warmup=0.5,
        why="Scale of the paper's claim: 81 nodes, 3 regions x 3 zones, 2-level relay trees; "
        "latency-bound (leader idle), most events per op, region/zone locality counters.",
    ),
    Workload(
        Scenario(
            name="epaxos5_hotkey",
            protocol="epaxos",
            num_nodes=5,
            num_clients=12,
            duration=1.4,
            workload=_checking(distribution="zipfian"),
            checks=EPAXOS_CHECKS,
            min_completed=1000,
        ),
        warmup=0.1,
        why="Leaderless path: epaxos/ and checkers/ dominate host time, no leader or relay; "
        "zipfian keys make the conflict share drive the fast-path ratio.",
    ),
    Workload(
        Scenario(
            name="pig7_leader_crash",
            protocol="pigpaxos",
            num_nodes=7,
            relay_groups=2,
            num_clients=8,
            client_timeout=0.3,
            duration=1.6,
            events=(ScenarioEvent.crash_leader(0.4), ScenarioEvent.recover_all(1.2)),
            checks=PAXOS_CHECKS,
            min_completed=1200,
        ),
        warmup=0.1,
        why="Fault run: leader crash, election, round retry, relay timeouts against a dead "
        "member; the only workload where unavail_ms and attempts_per_op are non-trivial.",
    ),
    Workload(
        Scenario(
            name="shard16_paxos9",
            protocol="paxos",
            num_nodes=9,
            shards=16,
            num_clients=24,
            duration=0.24,
            workload=_checking(num_keys=256),
            checks=PAXOS_CHECKS,
            min_completed=1500,
        ),
        warmup=0.08,
        why="shard/ routing and ShardReplicaHost indirection: 16 groups on 9 nodes spread "
        "the load over leaders instead of one hot node.",
    ),
    Workload(
        Scenario(
            name="single1_paxos",
            protocol="paxos",
            num_nodes=1,
            num_clients=8,
            duration=1.5,
            checks=PAXOS_CHECKS,
            min_completed=9000,
        ),
        warmup=0.1,
        why="Single-node baseline: no replication, so its host cost per op is the "
        "sim/+net/+cluster/+workload/+checkers/ floor every other workload pays.",
    ),
)

WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in _WORKLOADS}
