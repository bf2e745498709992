"""Golden determinism fingerprints: the simulator-optimization tripwire.

The hot-path overhaul (slotted events, tuple-compare heap entries, lazy
histograms, per-type size caches, the incremental commit-frontier scan,
inlined send paths) was required to preserve simulation results *bit for
bit*: same seeds, same RNG draw order, same event counts, same virtual
times, same client histories.  The fingerprints below were recorded on the
pre-optimization tree (commit e5b611d) and verified identical on the
optimized tree; any future "optimization" that shifts an event time, an RNG
draw, or an event count by even one ulp fails here immediately.

The set covers one representative per protocol, overlay and fault family:
Paxos and PigPaxos baselines, WAN relay groups, a drop-storm with relay
timeouts, EPaxos direct/relay/thrifty overlays, duplicate-delivery torture,
and the two paper-scale 25-node deployments.  (The 40-virtual-second
fault-tolerance run is covered by the cheaper storms here plus the safety
sweep in ``test_scenarios.py`` -- re-running tens of wall-clock seconds for
an identical signal is not worth the CI time.)

``ScenarioResult.fingerprint()`` hashes the recorded client history, the
completed-operation count, the total event count and the final virtual
time, so it is machine-independent: only simulation semantics move it.

One deliberate re-record since the original set: enabling
``ProtocolConfig.recovery_timeout`` by default (the fuzzing PR) moved
``epaxos-thrifty-crash`` -- the one golden scenario in which an instance
actually blocks long enough for recovery to arm and fire (the crash
orphans in-flight rounds).  Every other golden fingerprint is unchanged,
which is itself evidence for the lazy-arming contract: recovery schedules
nothing in runs that never block.

The fail-stop crash model (``SimNode.crash`` drops every send, handler and
replica timer the machine had queued, where a charged send used to depart
and a queued handler or timer used to run if the machine was back before it
fired) re-recorded the two goldens in which a crash lands on queued work
that mattered:

* ``epaxos-thrifty-crash`` -- the crashed replica's queued sends never
  leave, and no instance blocks long enough for recovery to start (4 -> 0
  recoveries): 19 156 -> 19 050 events and 649 -> 650 operations;
* ``pig-planet-zone-crash-75`` -- every counter is unchanged; the crashed
  zone's queued timers and handlers are dropped at the crash instead of
  each surfacing later as a no-op event, so 93 061 -> 93 050 events.

Every golden without a crash is byte-identical.

Single-path leader recovery (a promise reports every entry above the
candidate's commit frontier, executed or not, and the new leader fetches
nothing) re-recorded the two goldens whose leader change lands on a
lagging candidate or a split vote:

* ``pig-planet-region-loss-49`` -- node 26 of the partitioned region wins
  the election after the heal at commit frontier 72, with slots through
  217 chosen elsewhere.  It used to re-propose the 16 unexecuted slots the
  promises reported and fetch the 129 executed ones; it now re-proposes
  all 145 through the relay trees: 103 649 -> 133 743 events and
  329 -> 336 operations;
* ``pig-planet-zone-crash-75`` -- after the zone crash, nodes 73, 52, 49
  and 50 run phase 1 at once, and the last three promise node 73's
  ballot 2.73.  Node 52 used to lead at its own 2.52 anyway, and 49 and
  50 retried at 3.49 and 3.50 until node 50 led; now all three abandon
  their ballots and node 73 leads: five leaderships become two, and
  93 050 -> 72 254 events.  Node 73 answers clients slower than node 50
  did (p50 156 ms against 76 ms over 1.7-2.5 s), so 132 -> 96
  operations.
"""

from __future__ import annotations

import pytest

from helpers import library_run

#: scenario name -> fingerprint recorded at the pre-optimization baseline.
GOLDEN_FINGERPRINTS = {
    "pig-baseline-5": "4d7622561909e222d6c953db6204cccc85bb6bd033a2057685458e708b26b40e",
    "paxos-baseline-5": "1fb9abcdd8059ffbfb833fdc9c4667e5f8a09dfaf84dceed0f73a6ff91280bf1",
    "pig-wan-9": "189865e85d7041be4ae3b60eec234420b17b809ebb5b501743b5a7741a3ed1ae",
    "pig-relay-timeout-storm": "1b3c0986c7ff3366eff2491f71d52a2f28cc93e0c2014911545d0d7fbed68b8d",
    "epaxos-baseline-5": "81002a74403f56d167e2ac6ad6af9bd534c54d9c723510caad4314bf5a50182e",
    "epaxos-relay-wan-9": "733cb905f5b355bd6e92c5369cc04254a3acfb34b2db75210e16c1a76f1b4ba5",
    # Re-recorded twice, both deliberately, and only this scenario -- it is
    # the one golden in which an instance blocks long enough for recovery to
    # arm and fire: (1) recovery_timeout default-on (642 -> 645 ops);
    # (2) the fuzz-found recovery fix -- the fast-commit disproof now
    # honours latest-per-origin deps semantics, changing recovery
    # re-proposal outcomes (645 -> 649 ops).  Then once more with the
    # fail-stop crash model (see the module docstring; 649 -> 650 ops).
    "epaxos-thrifty-crash": "310c0f9bd74fc3b3748032444bdab0c38fd61c2f5ed7476202210704e7bc6812",
    "epaxos-duplicate-torture": "35b164448a71c318befcd162779819ed02b942bc694f930eeda7f7bb1abf527e",
    "paxos-throughput-25": "a31b239a31e6cefa06d77b2cf62c7058adf0c4f68cae3f83220e41f8734ff9b2",
    "epaxos-relay-wan-25": "33c1e9444b5bc5788c0dbfef50bb2992abe57af9fb4f85593bec48411a29b472",
    # Sharding tripwires (recorded at the sharding PR): 4 consensus groups
    # co-hosted on 5 nodes, leaders round-robin, clients routing per key.
    # Every *unsharded* fingerprint above predates sharding and must stay
    # byte-identical -- the single-group path shares the sharded code's
    # client/network/builder surfaces, so these pins prove shards=1 pays
    # zero determinism tax (no extra RNG draws, no reordered events).
    "paxos-sharded-4": "2d696109ea25503fa0e2cc4ecdd8048bd65dc0f3aa77e9230a05cb0ad99988a2",
    "epaxos-sharded-4": "49e235b42e538c3547b717d0f1839e9724435eb0d385337e204b2a3cbfefa750",
    # Batching tripwires (recorded at the batching/pipelining PR): one per
    # protocol family, each the batched twin of an existing scenario.
    # Every *unbatched* fingerprint above must stay byte-identical --
    # batching defaults off (batch_max_commands=1) and the disabled path
    # allocates no buffers, arms no timers and registers no metrics, so
    # these pins plus the unchanged controls prove the default pays zero
    # determinism tax.
    "paxos-throughput-25-batched": "63dfd0b15bc8eb04806778ee6004692fdc636f7c85d619018c199b9843bb43d8",
    "pig-batched-5": "e431511b87bd8e746c610fd65a622a45811f498368a90fb1af05e2400a8c5f77",
    "epaxos-batched-5": "3960d2bbebd11f1f491080de748b079307ca9d7f6f53e2e8659fb6fb2078d406",
    # Planet-hierarchy tripwires (recorded at the hierarchical-topology PR):
    # region/zone topologies at 49-81 nodes with zone-aligned two-level
    # relay trees, one per new fault family (region partition, zone crash,
    # deep-relay crash, WAN degradation).  Every pre-hierarchy fingerprint
    # above must stay byte-identical -- flat topologies carry no zones, a
    # zoneless relay plan is the historical single-level planner, and
    # leaves never ack commits, so these pins plus the unchanged controls
    # prove the degenerate path pays zero determinism tax.
    "pig-planet-region-loss-49": "d6c6198a79a0114ec965d09d8ef9a6c3c0a412e5b72166f5f0151e1e069bda92",
    # Re-recorded for the fail-stop crash model (see the module docstring).
    "pig-planet-zone-crash-75": "886103dfa18d6e9b74bca6c00b9ba35fab40df1af8a68dd9d792f86c31d26110",
    "epaxos-planet-deep-relay-crash-49": "f386db4dc4eb95904a4f8206d8c03e69c28ec076520d58529b327a5a1e3a6831",
    "pig-planet-wan-degradation-81": "bbe9bdce1768b25639358974823bf082319e0702d735cdd5e661b3e8fcf56292",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
def test_fingerprint_matches_pre_optimization_golden(name):
    run = library_run(name)  # the run the canned sweep also judges
    assert run.ok, run.violations
    assert run.fingerprint == GOLDEN_FINGERPRINTS[name], (
        f"scenario {name!r} no longer reproduces its pre-optimization "
        f"fingerprint: an optimization changed simulation semantics "
        f"(event order, RNG draw order, event count, or timing)"
    )
