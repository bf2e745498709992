"""The canned scenario library.

Adversarial scenarios spanning the paper's deployments (5/9/25-node LAN,
three-region WAN) and the failure modes each protocol must survive.  For
the Paxos family: leader crashes mid-round, relays crashing out from under
an open round, majority/minority partitions, message-drop storms that force
relay timeouts, and continuous relay-group churn.  For EPaxos: hot-key
contention storms (the paper's worst case for dependency tracking), drop
storms, node crashes -- covered twice: ``epaxos-crash-degraded`` pins
explicit-prepare recovery *off* (the historical degraded mode, where a
crashed leader's orphaned instances block their dependents but never break
safety; recovery is otherwise on by default), while ``epaxos-recovery-crash``
holds a ``progress`` floor proving
survivors finish the orphans and throughput actually recovers -- plus
partitions and duplicate-delivery torture (retransmission storms that bite
on any reply-counting bug).  The overlay family exercises the pluggable
fan-out layer: EPaxos PreAccept/Accept rounds through WAN relay trees,
relay-group churn under a drop storm, and thrifty (quorum-subset) rounds
whose fallback broadcast must hold a ``progress`` liveness floor under
crashes and severed links; ``epaxos-relay-recovery-25`` layers every
durability mechanism at once -- instance recovery, relay commit-durability
fallback and leader-side round retry -- on a paper-scale WAN relay
deployment losing a node mid-run.  The paper-scale tier exercises the headline
deployments the hot-path overhaul (PR 4) made affordable: the 25-node
Multi-Paxos control run and its PigPaxos counterpart (Fig. 8), 25-node
EPaxos over WAN relay trees, and a 40-virtual-second Fig.-13-style
fault-tolerance run with repeated follower and leader crashes.  Each
scenario runs with the linearizability
checker plus its protocol's invariant family enabled, so
``run_scenario(s).raise_on_violations()`` is a one-line whole-stack safety
test.

Both ``tests/test_scenarios.py`` and ``benchmarks/bench_scenarios.py``
iterate this library; add new scenarios here and both pick them up.
"""

from __future__ import annotations

from typing import Dict, List

from repro.scenarios.spec import Scenario, ScenarioEvent as E
from repro.workload.spec import WorkloadSpec

#: Check-family *names* every EPaxos scenario enables (distinct from the
#: checker-function tuple ``repro.checkers.invariants.EPAXOS_CHECKS``): the
#: slot-based log checks do not apply (and skip themselves), but quorum
#: sanity still does; the instance/dependency-graph checks are the EPaxos
#: equivalents.
EPAXOS_CHECK_NAMES = ("linearizability", "log_invariants", "epaxos_invariants")


#: Check-family names every Paxos/PigPaxos scenario enables.
PAXOS_CHECK_NAMES = ("linearizability", "log_invariants")


def _scenarios() -> List[Scenario]:
    # Every scenario declares its checks explicitly and holds a min_completed
    # liveness floor (enforced statically by the scenario-hygiene lint rule).
    # Floors are calibrated at roughly one third of the seed's observed
    # completion count, so a "safe but stuck" regression trips the progress
    # check long before it halves throughput, while scheduler-level noise
    # from legitimate changes never does.
    return [
        Scenario(
            name="pig-baseline-5",
            protocol="pigpaxos",
            num_nodes=5,
            relay_groups=2,
            num_clients=4,
            duration=1.5,
            seed=11,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=1150,  # seed completes 3457
            description="Fault-free 5-node PigPaxos, 2 relay groups (Fig. 10 shape).",
        ),
        Scenario(
            name="paxos-baseline-5",
            protocol="paxos",
            num_nodes=5,
            num_clients=4,
            duration=1.5,
            seed=11,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=1650,  # seed completes 4995
            description="Fault-free 5-node Multi-Paxos control run.",
        ),
        Scenario(
            name="pig-relay-sweep-25",
            protocol="pigpaxos",
            num_nodes=25,
            relay_groups=3,
            num_clients=6,
            duration=0.8,
            seed=7,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=750,  # seed completes 2281
            description="Paper-style 25-node cluster, 3 relay groups (Fig. 7/8 shape).",
        ),
        Scenario(
            name="pig-wan-9",
            protocol="pigpaxos",
            num_nodes=9,
            wan=True,
            use_region_groups=True,
            num_clients=6,
            duration=2.5,
            seed=3,
            client_timeout=1.0,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=75,  # seed completes 228
            description="Nine nodes over three WAN regions, one relay group per region (Fig. 9).",
        ),
        Scenario(
            name="pig-crash-follower",
            protocol="pigpaxos",
            num_nodes=7,
            relay_groups=2,
            num_clients=4,
            duration=2.0,
            seed=5,
            client_timeout=0.5,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=1450,  # seed completes 4434
            events=(
                E.crash(0.5, node=3),
                E.recover(1.3, node=3),
            ),
            description="A follower (potential relay) crashes mid-run and recovers (Fig. 13 shape).",
        ),
        Scenario(
            name="pig-crash-leader-during-round",
            protocol="pigpaxos",
            num_nodes=5,
            relay_groups=2,
            num_clients=4,
            duration=3.0,
            seed=13,
            client_timeout=0.4,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=1650,  # seed completes 5086
            events=(
                E.crash_leader(0.6),
                E.recover_all(2.0),
            ),
            description="The leader dies with rounds in flight; a new leader must take over safely.",
        ),
        Scenario(
            name="pig-partition-minority",
            protocol="pigpaxos",
            num_nodes=5,
            relay_groups=2,
            num_clients=4,
            duration=2.0,
            seed=17,
            client_timeout=0.5,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=850,  # seed completes 2604
            events=(
                E.partition(0.5, (0, 1, 2), (3, 4)),
                E.heal_partition(1.3),
            ),
            description="Two nodes are cut off; the majority keeps committing, then heals.",
        ),
        Scenario(
            name="pig-partition-leader-minority",
            protocol="pigpaxos",
            num_nodes=5,
            relay_groups=2,
            num_clients=4,
            duration=3.0,
            seed=19,
            client_timeout=0.4,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=1100,  # seed completes 3320
            events=(
                E.partition(0.5, (0, 1), (2, 3, 4)),
                E.heal_partition(1.8),
            ),
            description="The leader is stranded in a minority; the majority elects around it.",
        ),
        Scenario(
            name="pig-relay-timeout-storm",
            protocol="pigpaxos",
            num_nodes=9,
            relay_groups=3,
            num_clients=4,
            duration=2.0,
            seed=23,
            client_timeout=0.5,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=640,  # seed completes 1920
            config_overrides={"relay_timeout": 0.02},
            events=(
                E.set_drop(0.4, probability=0.25),
                E.set_drop(1.2, probability=0.0),
            ),
            description="A lossy window forces relay timeouts, partial aggregates and retries.",
        ),
        Scenario(
            name="pig-relay-churn",
            protocol="pigpaxos",
            num_nodes=9,
            relay_groups=3,
            num_clients=4,
            duration=1.8,
            seed=29,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=1300,  # seed completes 4074
            config_overrides={"group_response_threshold": 0.5},
            events=tuple(
                E.reshuffle_relays(round(0.2 * step, 3)) for step in range(1, 8)
            ),
            description="Continuous relay-group reshuffling with early threshold flushing (Sec. 4).",
        ),
        Scenario(
            name="pig-lossy-background",
            protocol="pigpaxos",
            num_nodes=7,
            relay_groups=2,
            num_clients=4,
            duration=2.0,
            seed=31,
            client_timeout=0.5,
            drop_probability=0.05,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=25,  # seed completes 87 under sustained 5% loss
            description="Every message faces 5% loss for the whole run.",
        ),
        # ------------------------------------------------------------ EPaxos
        Scenario(
            name="epaxos-baseline-5",
            protocol="epaxos",
            num_nodes=5,
            num_clients=4,
            duration=1.5,
            seed=11,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=600,  # seed completes 1852
            description="Fault-free 5-node EPaxos control run, every client a leader.",
        ),
        Scenario(
            name="epaxos-hot-key-storm",
            protocol="epaxos",
            num_nodes=5,
            num_clients=6,
            duration=1.5,
            seed=37,
            workload=WorkloadSpec.checking_default(num_keys=3),
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=650,  # seed completes 1984
            description="Three hot keys, six leaders: maximal conflict rate and dependency churn.",
        ),
        Scenario(
            name="epaxos-drop-storm",
            protocol="epaxos",
            num_nodes=5,
            num_clients=4,
            duration=2.0,
            seed=41,
            client_timeout=0.4,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=290,  # seed completes 877
            events=(
                E.set_drop(0.4, probability=0.25),
                E.set_drop(1.2, probability=0.0),
            ),
            description="A lossy window strands instances mid-round; retries spawn duplicate instances.",
        ),
        Scenario(
            # Shrunk from fuzz seed 42 (`python -m repro.fuzz --seed 42`).
            # On an even-size cluster the paper's fast-quorum formula
            # f + floor((f+1)/2) drops below a majority (2 of 4), so two
            # command leaders could fast-commit conflicting commands with
            # disjoint vote sets and execute them in different orders.
            # WAN latencies + a short client timeout make the client
            # re-send the same command through a second leader, which is
            # what manufactures the concurrent conflicting proposals.
            name="epaxos-even-cluster-retry",
            protocol="epaxos",
            num_nodes=4,
            num_clients=1,
            duration=1.125,
            seed=42,
            wan=True,
            workload=WorkloadSpec(num_keys=1, read_ratio=0.25,
                                  distribution="zipfian", unique_values=True),
            client_timeout=0.4,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=10,
            description="Fuzz-found (seed 42, shrunk): even-cluster fast quorums must still pairwise intersect or conflicting commands execute divergently.",
        ),
        Scenario(
            # Fuzz-found regression (fleet seed 257, shrunk).  A deposed
            # PigPaxos leader whose in-flight slot is NoOp-filled by the
            # new leader's recovery used to acknowledge the orphaned
            # client command with the NoOp's empty result -- a phantom
            # "not found" read.  The partition inflates node 6's ballot
            # (phase-1 retries while isolated), the duplicate storm shifts
            # timing so a proposal is in flight at heal, and the takeover
            # NoOp-fills its slot.
            name="pig-deposed-leader-phantom-read",
            protocol="pigpaxos",
            num_nodes=7,
            num_clients=6,
            duration=2.0,
            seed=257,
            relay_groups=1,
            wan=True,
            workload=WorkloadSpec(num_keys=1, read_ratio=0.25,
                                  unique_values=True),
            client_timeout=0.3,
            checks=("linearizability", "log_invariants", "progress"),
            min_completed=40,
            events=(
                E.partition(0.576, (0, 1, 2, 3, 4, 5), (6,)),
                E.duplicate_storm(1.349, probability=0.1),
                E.heal_partition(1.58),
            ),
            description="Fuzz-found (seed 257, shrunk): a deposed leader must not answer a client with the result of the NoOp that displaced its proposal.",
        ),
        Scenario(
            # Found by drawing the Paxos-family timing knobs (fuzz seed 66,
            # shrunk).  Elections every few tens of milliseconds, and a
            # severed link, change leaders while slots are chosen.  A slot
            # chosen under one ballot may be executed by every voter of the
            # next leader's phase-1 quorum but one, which still holds an
            # older value: unless a promise reports executed entries too,
            # the new leader re-proposes that older value over the chosen
            # one, and the follower's log refuses it (a runtime abort).
            name="paxos-leader-churn-chosen-slot",
            protocol="paxos",
            num_nodes=5,
            num_clients=2,
            duration=0.375,
            seed=66,
            client_timeout=0.4,
            workload=WorkloadSpec(num_keys=3, distribution="zipfian",
                                  unique_values=True),
            config_overrides={"heartbeat_interval": 0.02,
                              "election_timeout_min": 0.04,
                              "election_timeout_max": 0.042},
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=150,  # seed completes 454
            events=(E.sever_link(0.247, 0, 4),),
            description="Fuzz-found (seed 66, shrunk): under fast leader churn a new leader must re-propose a chosen slot's value even where its quorum has executed it.",
        ),
        Scenario(
            # Fuzz-found regression (fleet seed 462, shrunk).  A region
            # partition of a 12-node WAN cluster forces explicit-prepare
            # recovery of fast-committed instances; the recovery's
            # fast-commit-disproof heuristic must treat a dependency on a
            # *later* same-origin instance as covering every earlier one
            # (deps keep only the latest interfering instance per origin),
            # or it re-proposes with inflated deps and replicas commit
            # divergent attributes for the same instance.
            name="epaxos-region-partition-recovery",
            protocol="epaxos",
            num_nodes=12,
            num_clients=3,
            duration=0.844,
            seed=462,
            wan=True,
            workload=WorkloadSpec(num_keys=1, read_ratio=0.0,
                                  unique_values=True),
            client_timeout=0.5,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=10,
            events=(
                E.partition(0.406, (1, 2, 4, 5, 7, 8, 9, 10, 11), (0, 3, 6)),
            ),
            description="Fuzz-found (seed 462, shrunk): recovery's fast-commit disproof must respect latest-per-origin deps semantics or instance attributes diverge.",
        ),
        Scenario(
            name="epaxos-crash-degraded",
            protocol="epaxos",
            num_nodes=5,
            num_clients=4,
            duration=2.0,
            seed=43,
            client_timeout=0.4,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            # Degraded mode still commits plenty off the unblocked keys; the
            # floor is a third of the observed 639.
            min_completed=210,
            # Recovery is on by default everywhere else; this scenario pins
            # it off deliberately -- the degraded-mode control proving that
            # orphaned instances block liveness but never safety.
            config_overrides={"recovery_timeout": None},
            events=(E.crash(0.5, node=4),),
            description="A leader dies for good with recovery disabled: the degraded-mode control where orphans stay blocked, safely.",
        ),
        Scenario(
            name="epaxos-recovery-crash",
            protocol="epaxos",
            num_nodes=5,
            num_clients=5,
            duration=3.0,
            seed=45,
            client_timeout=0.4,
            workload=WorkloadSpec.checking_default(num_keys=3),
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            # Without explicit prepare this seed completes 590 ops (post-crash
            # throughput collapses to ~2 ops once an orphan blocks the hot
            # keyspace); with recovery it completes 739 (~170 after the crash).
            # The floor proves the orphans actually get finished, not merely
            # tolerated.  Recovery now defaults on; the explicit override
            # stays so the scenario keeps meaning "0.25s deadline" even if
            # the default moves.
            min_completed=650,
            config_overrides={"recovery_timeout": 0.25},
            events=(E.crash(0.5, node=4),),
            description="A leader dies with rounds in flight on a 3-key keyspace; explicit-prepare recovery must finish its orphans and restore throughput.",
        ),
        Scenario(
            name="epaxos-partition-heal",
            protocol="epaxos",
            num_nodes=5,
            num_clients=4,
            duration=2.2,
            seed=47,
            client_timeout=0.4,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=195,  # seed completes 595
            events=(
                E.partition(0.5, (0, 1, 2), (3, 4)),
                E.heal_partition(1.4),
            ),
            description="A minority is cut off; its instances stall while the majority commits, then heals.",
        ),
        # -------------------------------------------------- EPaxos overlays
        Scenario(
            name="epaxos-relay-wan-9",
            protocol="epaxos",
            num_nodes=9,
            wan=True,
            num_clients=6,
            duration=2.5,
            seed=61,
            client_timeout=1.0,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=115,  # seed completes 351
            config_overrides={
                "overlay": {"kind": "relay", "use_region_groups": True}
            },
            description="Nine WAN nodes, PreAccept/Accept via region relay trees (paper's overlay on the leaderless protocol).",
        ),
        Scenario(
            name="epaxos-relay-reshuffle-storm",
            protocol="epaxos",
            num_nodes=9,
            num_clients=5,
            duration=2.0,
            seed=67,
            client_timeout=0.5,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=165,  # seed completes 504
            config_overrides={
                "overlay": {"kind": "relay", "num_groups": 3, "relay_timeout": 0.02}
            },
            events=(
                E.set_drop(0.4, probability=0.2),
                E.reshuffle_relays(0.6),
                E.reshuffle_relays(0.9),
                E.set_drop(1.2, probability=0.0),
                E.reshuffle_relays(1.5),
            ),
            description="Relay-overlay EPaxos through a drop storm with continuous relay-group churn.",
        ),
        Scenario(
            name="epaxos-thrifty-crash",
            protocol="epaxos",
            num_nodes=5,
            num_clients=4,
            duration=2.0,
            seed=71,
            client_timeout=0.4,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=40,
            config_overrides={
                "overlay": {"kind": "thrifty", "thrifty_fallback_timeout": 0.08}
            },
            events=(E.crash(0.5, node=3),),
            description="Thrifty EPaxos loses a node: rounds that targeted it must recover via the fallback broadcast.",
        ),
        Scenario(
            name="epaxos-thrifty-severed-links",
            protocol="epaxos",
            num_nodes=5,
            num_clients=4,
            duration=2.0,
            seed=73,
            client_timeout=0.4,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=90,
            config_overrides={
                "overlay": {"kind": "thrifty", "thrifty_fallback_timeout": 0.08}
            },
            events=(
                E.sever_link(0.1, 0, 1),
                E.sever_link(0.1, 2, 3),
            ),
            description="Two severed links stall thrifty rounds that sampled the unreachable peer; the fallback broadcast must keep throughput above the progress floor.",
        ),
        # ------------------------------------------------- paper scale / long
        Scenario(
            name="paxos-throughput-25",
            protocol="paxos",
            num_nodes=25,
            num_clients=6,
            duration=1.0,
            seed=7,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=740,  # seed completes 2225
            description="Paper-scale 25-node Multi-Paxos control run (Fig. 8 baseline): the leader touches 2(N-1) messages per op.",
        ),
        # ------------------------------------------------- batching & pipelining
        # Batched twins of hot scenarios: identical cluster shape and seed,
        # plus the PR-9 batching knobs.  Their unbatched originals stay
        # byte-identical (batching defaults off); these cells pin the
        # batched code path's own determinism and its liveness floor.
        Scenario(
            name="paxos-throughput-25-batched",
            protocol="paxos",
            num_nodes=25,
            num_clients=6,
            duration=1.0,
            seed=7,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=1050,  # seed completes 3179
            config_overrides={"batch_max_commands": 8, "pipeline_depth": 2},
            description="Batched twin of paxos-throughput-25: pipeline back-pressure packs up to 8 commands per slot, amortising the leader's 2(N-1) messages per op.",
        ),
        Scenario(
            name="pig-batched-5",
            protocol="pigpaxos",
            num_nodes=5,
            relay_groups=2,
            num_clients=4,
            duration=1.5,
            seed=11,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=1080,  # seed completes 3248
            config_overrides={"batch_max_commands": 4, "pipeline_depth": 2},
            description="Batched twin of pig-baseline-5: command batches ride the relay trees unsplit, one RelayRequest per slot.",
        ),
        Scenario(
            name="epaxos-batched-5",
            protocol="epaxos",
            num_nodes=5,
            num_clients=6,
            duration=1.5,
            seed=11,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=245,  # seed completes 746
            config_overrides={"batch_max_commands": 4, "batch_max_delay": 0.01},
            description="EPaxos delay batching: each opportunistic leader holds non-conflicting commands up to 10 ms and leads them as one instance.",
        ),
        Scenario(
            name="epaxos-relay-wan-25",
            protocol="epaxos",
            num_nodes=25,
            wan=True,
            num_clients=8,
            duration=2.5,
            seed=83,
            client_timeout=1.0,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=60,
            config_overrides={
                "overlay": {"kind": "relay", "use_region_groups": True}
            },
            description="Paper-scale 25-node EPaxos across three WAN regions, PreAccept/Accept/commit through region relay trees.",
        ),
        Scenario(
            name="epaxos-relay-recovery-25",
            protocol="epaxos",
            num_nodes=25,
            wan=True,
            num_clients=8,
            duration=2.5,
            seed=89,
            client_timeout=1.0,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            # Without the durability trio this seed completes 109 ops (21
            # after the crash); with them it completes 143 (~60 after).
            min_completed=125,
            config_overrides={
                "overlay": {
                    "kind": "relay",
                    "use_region_groups": True,
                    "commit_fallback_timeout": 0.25,
                },
                "recovery_timeout": 0.4,
                "leader_retry_timeout": 0.3,
            },
            events=(E.crash(0.8, node=7),),
            description="Paper-scale WAN relay EPaxos loses a node mid-run: instance recovery, relay commit-durability fallback and leader round retry must together hold the progress floor.",
        ),
        Scenario(
            name="pig-fault-tolerance-long",
            protocol="pigpaxos",
            num_nodes=7,
            relay_groups=2,
            num_clients=4,
            duration=40.0,
            seed=97,
            client_timeout=0.5,
            checks=("linearizability", "log_invariants", "progress"),
            min_completed=5000,
            events=(
                E.crash(3.0, node=3),
                E.recover(6.0, node=3),
                E.crash_leader(9.0),
                E.recover_all(13.0),
                E.crash(16.0, node=5),
                E.recover(19.0, node=5),
                E.crash_leader(21.0),
                E.recover_all(25.0),
                E.crash(28.0, node=1),
                E.recover(31.0, node=1),
                E.crash_leader(34.0),
            ),
            description="Long-duration fault-tolerance run (Fig. 13 shape): repeated follower and leader crashes over 40 virtual seconds.",
        ),
        # ---------------------------------------------------------- sharded
        # Multi-group consensus over a shared node set (see repro.shard):
        # each scenario runs `shards` independent consensus groups on the
        # same machines, leaders placed round-robin, clients routing per
        # key.  The safety checkers apply per group; linearizability is
        # per-key and spans groups unchanged.
        Scenario(
            name="paxos-sharded-4",
            protocol="paxos",
            num_nodes=5,
            num_clients=8,
            duration=1.0,
            seed=1,
            shards=4,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=2150,  # seed completes 6566
            description="Fault-free 4-shard Multi-Paxos on 5 shared nodes, leaders round-robin.",
        ),
        Scenario(
            name="pig-sharded-4",
            protocol="pigpaxos",
            num_nodes=5,
            relay_groups=2,
            num_clients=8,
            duration=1.0,
            seed=1,
            shards=4,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=1500,  # seed completes 4581
            description="Fault-free 4-shard PigPaxos, every group fanning out through 2 relay groups.",
        ),
        Scenario(
            name="epaxos-sharded-4",
            protocol="epaxos",
            num_nodes=5,
            num_clients=8,
            duration=1.0,
            seed=1,
            shards=4,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=480,  # seed completes 1448
            description="Fault-free 4-shard EPaxos: four leaderless groups sharing 5 nodes.",
        ),
        Scenario(
            name="sharded-crash-shard-leader",
            protocol="paxos",
            num_nodes=5,
            num_clients=6,
            duration=1.5,
            seed=3,
            shards=4,
            client_timeout=0.3,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=1490,  # seed completes 4476
            events=(
                # Node 1 hosts shard 1's leader under round-robin placement;
                # crashing it also takes down follower instances of every
                # other shard (co-hosting is the point of the tentpole).
                E.crash(0.5, node=1),
                E.recover(1.0, node=1),
            ),
            description="Crash the machine hosting shard 1's leader mid-run; other shards keep committing.",
        ),
        Scenario(
            name="sharded-partition-straddle",
            protocol="paxos",
            num_nodes=5,
            num_clients=6,
            duration=1.8,
            seed=5,
            shards=4,
            client_timeout=0.3,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=610,  # seed completes 1849
            events=(
                # {0, 1} is the minority side and holds the leaders of
                # shards 0 and 1 -- both stall until heal while shards 2
                # and 3 (leaders on the majority side) keep committing.
                E.partition(0.4, (0, 1), (2, 3, 4)),
                E.heal_partition(1.0),
            ),
            description="Partition straddling two shards' leader nodes: minority-side shards stall, majority-side shards stay live.",
        ),
        Scenario(
            name="sharded-hot-shard-zipf",
            protocol="epaxos",
            num_nodes=5,
            num_clients=6,
            duration=1.2,
            seed=7,
            shards=4,
            workload=WorkloadSpec(
                num_keys=25,
                read_ratio=0.5,
                distribution="zipfian",
                unique_values=True,
            ),
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=550,  # seed completes 1652
            description="Zipfian skew concentrates load on shard 0 (the hot group); per-shard counters expose the imbalance.",
        ),
        Scenario(
            name="sharded-hot-shard-zipf-batched",
            protocol="epaxos",
            num_nodes=5,
            num_clients=6,
            duration=1.2,
            seed=7,
            shards=4,
            workload=WorkloadSpec(
                num_keys=25,
                read_ratio=0.5,
                distribution="zipfian",
                unique_values=True,
            ),
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=190,  # seed completes 578
            config_overrides={"batch_max_commands": 4, "batch_max_delay": 0.01},
            description="Batched twin of sharded-hot-shard-zipf: delay batching on every group coalesces the hot shard's zipf-concentrated load.",
        ),
        Scenario(
            name="epaxos-sharded-relay-wan-9",
            protocol="epaxos",
            num_nodes=9,
            wan=True,
            num_clients=6,
            duration=1.5,
            seed=23,
            shards=3,
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=65,  # seed completes 196
            config_overrides={
                "overlay": {"kind": "relay", "use_region_groups": True}
            },
            description="3-shard EPaxos over the three-region WAN, each group's rounds through region relay trees.",
        ),
        # ------------------------------------------------- planet scale
        # Region -> zone -> node hierarchies (PR 10): 49-81 nodes across
        # 3-5 regions with 3 zones each, zone-aligned two-level relay
        # trees.  The region-loss family cuts whole regions/zones out of
        # the cluster; the wan-degradation family degrades the links
        # themselves (loss + a sluggish region).  Node->region placement
        # is round-robin (node i lives in region i % R, zone (i // R) % Z),
        # which is what makes the partition groups below whole regions.
        Scenario(
            name="pig-planet-region-loss-49",
            protocol="pigpaxos",
            num_nodes=49,
            hierarchy=(3, 3),
            use_region_groups=True,
            num_clients=8,
            duration=2.5,
            seed=101,
            client_timeout=1.0,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=110,  # seed completes 329
            config_overrides={"relay_levels": 2},
            events=(
                # Region "oregon" (node i % 3 == 2: 16 of 49 nodes) drops
                # off the planet; the two surviving regions still hold 33
                # nodes -- a comfortable majority that must keep committing.
                E.partition(
                    0.7,
                    tuple(n for n in range(49) if n % 3 != 2),
                    tuple(n for n in range(49) if n % 3 == 2),
                ),
                E.heal_partition(1.8),
            ),
            description="49 nodes over 3 regions x 3 zones, two-level zone relay trees; a whole region partitions away and later rejoins.",
        ),
        Scenario(
            name="pig-planet-zone-crash-75",
            protocol="pigpaxos",
            num_nodes=75,
            hierarchy=(5, 3),
            use_region_groups=True,
            num_clients=8,
            duration=2.5,
            seed=103,
            client_timeout=1.0,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=44,  # seed completes 132
            config_overrides={"relay_levels": 2},
            events=tuple(
                # Zone virginia-z0 = {0, 15, 30, 45, 60} under round-robin
                # placement: all five machines of one zone fail together
                # (a zone outage), then power back on.
                E.crash(0.6, node=n) for n in (0, 15, 30, 45, 60)
            ) + (E.recover_all(1.6),),
            description="75 nodes over 5 regions x 3 zones: one complete zone (5 machines) crashes and recovers; zone-aligned subtrees route around it.",
        ),
        Scenario(
            name="epaxos-planet-deep-relay-crash-49",
            protocol="epaxos",
            num_nodes=49,
            hierarchy=(3, 3),
            num_clients=16,
            duration=4.0,
            seed=127,
            client_timeout=0.75,
            # Hot keyspace so the surviving leaders' instances all conflict:
            # a leader that misses a dependency's ECommit stalls execution
            # and its client visibly times out, which is what makes the
            # fallback's healing measurable from the outside.
            workload=WorkloadSpec(num_keys=4, read_ratio=0.25, unique_values=True),
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            # Fixed relays pin node 0 as region virginia's first-hop relay
            # and node 4 as the california-z1 sub-relay in every root's
            # tree; crashing both tears a hole at depth 1 *and* depth 2 of
            # all 48 surviving fan-out trees at once.  With the hop-by-hop
            # commit fallback this seed completes 50 ops; with
            # commit_fallback_timeout=None the starved subtrees silently
            # miss ECommits, dependents stall until instance recovery
            # limps in, and it completes only 44 (see the mutation test in
            # tests/test_scenario_mutations.py).  The floor sits between.
            min_completed=47,
            config_overrides={
                "overlay": {
                    "kind": "relay",
                    "use_region_groups": True,
                    "relay_levels": 2,
                    "fixed_relays": True,
                    "commit_fallback_timeout": 0.25,
                },
                "recovery_timeout": 1.5,
            },
            events=(E.crash(0.5, node=0), E.crash(0.5, node=4)),
            description="Depth-2 zone relay trees on 49 planet nodes lose a first-hop relay and an interior sub-relay mid-run: the hop-by-hop ack/resend fallback must heal the torn subtrees below the first hop.",
        ),
        Scenario(
            name="pig-planet-wan-degradation-81",
            protocol="pigpaxos",
            num_nodes=81,
            hierarchy=(3, 3),
            use_region_groups=True,
            num_clients=8,
            duration=2.5,
            seed=109,
            client_timeout=1.0,
            checks=PAXOS_CHECK_NAMES + ("progress",),
            min_completed=58,  # seed completes 176
            config_overrides={"relay_levels": 2},
            events=(
                # The WAN degrades rather than partitions: a lossy window
                # hits every link while one whole region turns sluggish
                # (node i % 3 == 1 is region "california", 27 of 81 nodes),
                # then both clear.
                E.set_drop(0.6, probability=0.15),
            ) + tuple(
                E.sluggish(0.6, node=n, factor=4.0) for n in range(81) if n % 3 == 1
            ) + (
                E.set_drop(1.5, probability=0.0),
            ) + tuple(
                E.sluggish(1.5, node=n, factor=1.0) for n in range(81) if n % 3 == 1
            ),
            description="81 planet nodes under WAN degradation: 15% loss everywhere plus one 4x-sluggish region, through two-level relay trees.",
        ),
        Scenario(
            name="epaxos-duplicate-torture",
            protocol="epaxos",
            num_nodes=5,
            num_clients=5,
            duration=1.8,
            seed=53,
            workload=WorkloadSpec.checking_default(num_keys=4),
            checks=EPAXOS_CHECK_NAMES + ("progress",),
            min_completed=570,  # seed completes 1716
            events=(
                E.duplicate_storm(0.2, probability=0.35),
                E.duplicate_storm(1.4, probability=0.0),
            ),
            description="35% of messages delivered twice: retransmission torture for reply accounting.",
        ),
    ]


def all_scenarios() -> Dict[str, Scenario]:
    """Name -> scenario for every canned scenario."""
    scenarios = _scenarios()
    return {scenario.name: scenario for scenario in scenarios}


def get_scenario(name: str) -> Scenario:
    scenarios = all_scenarios()
    if name not in scenarios:
        known = ", ".join(sorted(scenarios))
        raise KeyError(f"unknown scenario {name!r}; known: {known}")
    return scenarios[name]


def scenarios_for_protocol(protocol: str) -> Dict[str, Scenario]:
    """Name -> scenario restricted to one protocol (CLI ``--protocol``)."""
    return {
        name: scenario
        for name, scenario in all_scenarios().items()
        if scenario.protocol == protocol
    }


#: A small subset used by CI smoke runs and quick local checks.  CI runs
#: the full EPaxos sweep in a separate step, so smoke carries only the
#: fast EPaxos baseline plus one scenario per new fan-out overlay (relay,
#: thrifty) so an overlay regression fails fast.  The paper-scale 25-node
#: scenarios ride along because they finish in about a second each after
#: the hot-path overhaul; the 40-virtual-second fault-tolerance run stays
#: full-sweep-only (tens of seconds of wall clock).  The two recovery
#: scenarios are in smoke so a regression in the explicit-prepare path (or
#: its overlay durability companions) fails fast.
SMOKE_SCENARIOS = (
    "pig-baseline-5",
    "pig-crash-follower",
    "epaxos-baseline-5",
    "epaxos-relay-wan-9",
    "epaxos-thrifty-crash",
    "paxos-throughput-25",
    "epaxos-relay-wan-25",
    "epaxos-recovery-crash",
    "epaxos-relay-recovery-25",
    # One batched cell per protocol so a batching regression fails fast.
    "paxos-throughput-25-batched",
    "pig-batched-5",
    "epaxos-batched-5",
    # One planet-scale hierarchy cell so a region/zone topology or deep
    # relay-tree regression fails fast (the rest of the planet family is
    # full-sweep-only).
    "pig-planet-region-loss-49",
)


#: The sharded smoke sweep (CI's multi-group step, ``--smoke --sharded``):
#: the whole sharded family -- one fault-free cell per protocol, the two
#: fault-confinement scenarios, the hot-group skew probe and the WAN relay
#: cell.  Small enough to stay a smoke run, complete enough that any
#: regression in routing, co-hosting or per-group checking fails fast.
SHARDED_SMOKE_SCENARIOS = (
    "paxos-sharded-4",
    "pig-sharded-4",
    "epaxos-sharded-4",
    "sharded-crash-shard-leader",
    "sharded-partition-straddle",
    "sharded-hot-shard-zipf",
    "sharded-hot-shard-zipf-batched",
    "epaxos-sharded-relay-wan-9",
)
