"""Re-seedable known bugs for mutation-fuzz calibration.

A fuzzer you have never seen find a bug is just a random workload
generator.  This module re-seeds three latent EPaxos bugs fixed in the
"EPaxos under adversity" PR -- the same mutations the scenario-level
mutation tests pin -- as named, reversible patches, so the fleet driver can
prove end-to-end that random schedules + checkers + shrinking actually
flush real protocol bugs out:

* ``vote-dedup`` -- every delivered PreAccept/Accept reply counts as a
  fresh vote, so a retransmission storm fakes fast-path quorums and drops
  conflict edges (the pre-fix reply counting).
* ``key-index`` -- the per-key conflict index keeps a single
  last-writer-wins slot instead of one per origin replica, silently
  dropping dependency edges under contention.
* ``planner-order`` -- the execution planner sorts strongly connected
  components by instance id alone, dropping the (seq, id) tie-break, so
  replicas execute dependency cycles in different orders.

``python -m repro.fuzz --fleet 40 --mutation vote-dedup --protocols epaxos``
must find (and shrink) a violation; ``tests/test_fuzz.py`` gates all three.

A fourth breaks explicit-prepare recovery's decision table:

* ``recovery-noop`` -- every recovery ignores the commit and accept
  evidence its prepare round gathered and commits a no-op, so an instance
  some replica already committed with its real command is decided twice.
  It is the one mutation that trips ``epaxos_instance_agreement``
  (``tests/test_scenarios.py`` pins it on a recovery-enabled drop storm).

Two more break the batched reply path every protocol shares; each must trip
``linearizability`` on a batched Paxos and a batched EPaxos run
(``tests/test_batching.py``):

* ``batch-unpack-reversed`` -- ``KVStore.apply``, the one execute point of
  both protocols, applies a batch in reverse order while the reply fan-out
  still zips results positionally with the recorded clients, so clients are
  handed each other's results.
* ``reply-misroute`` -- the shared reply helper rotates the recorded clients
  by one.  One patch point breaking both protocols proves it is the only
  reply path.

Two break the Paxos family's quorum arithmetic, the safety core of the
paper's own protocol; each must trip the log checkers on a leader-minority
partition (``tests/test_scenarios.py`` pins both on
``pig-partition-leader-minority``):

* ``vote-count-early`` -- ``VoteTracker.ack`` and ``VoteTracker.ack_all``
  (the relay root's per-aggregate count) report the quorum one vote early,
  so phase 1 and phase 2 both complete a vote short.
* ``phase2-quorum-one`` -- ``MajorityQuorum.phase2_size`` is 1: a leader
  commits on its own vote alone.

One re-seeds the Paxos family's chosen-slot overwrite, the pre-fix phase 1:

* ``promise-prunes-executed`` -- a promise leaves out every entry its voter
  has executed, so a new leader whose quorum executed a chosen slot
  re-proposes a stale value or a no-op over it.  ``tests/test_scenarios.py``
  pins it on ``paxos-leader-churn-chosen-slot``.

One switches off at-most-once execution:

* ``session-dedup-off`` -- the store's session table never finds a member,
  so every duplicate commit of a retried command is applied again and
  ``duplicate_commands_skipped`` never counts.  No library run is known to
  trip a checker under it; ``tests/test_paxos_unit.py`` and
  ``tests/test_epaxos_unit.py`` pin the double apply on each protocol's
  replica-level duplicate case.

Usage::

    from repro.fuzz.mutations import apply_mutation

    with apply_mutation("key-index"):
        result = run_scenario(generate_scenario(seed))
    # patches are restored on exit, even on error
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.statemachine.command import CommandBatch, NoOp


def _broken_register_vote(voters, voter):
    """Pre-fix reply counting: duplicates masquerade as distinct voters."""
    voters.add((voter, len(voters)))
    return True


def _broken_record_key(self, command, instance):
    """Pre-fix conflict index: one last-writer-wins slot per key.

    Walks a batch's sub-commands and skips keyless recovery no-ops exactly
    like the real ``_record_key``, so only the index update is broken.
    """
    if type(command) is CommandBatch:
        for sub in command.commands:
            _broken_record_key(self, sub, instance)
    elif type(command) is not NoOp:
        self._key_index[command.key] = {instance[0]: instance[1]}


def _noop_every_recovery(self, recovery, msg):
    """A recovery that ignores its prepare evidence and always commits a no-op."""
    if msg.voter in recovery.replies:
        return
    recovery.replies[msg.voter] = msg
    if len(recovery.replies) >= self.quorum.phase1_size:
        self._recovery_accept(recovery, NoOp(), 1, frozenset(), noop=True)


def _make_early_ack(original):
    # Wraps ``ack(voter)`` and ``ack_all(voters)`` alike.
    def ack_one_vote_early(self, votes):
        original(self, votes)
        return len(self._acks) >= self.required - 1

    return ack_one_vote_early


def _make_broken_execution_order(original):
    def id_sorted(self, root):
        order, visited = original(self, root)
        return sorted(order), visited

    return id_sorted


def _make_reversed_batch_apply(original):
    def apply_reversed(self, command):
        if type(command) is CommandBatch and len(command.commands) > 1:
            return tuple(original(self, sub) for sub in reversed(command.commands))
        return original(self, command)

    return apply_reversed


class _NoSessions(dict):
    """A session table that never finds a member: every command looks new."""

    def __contains__(self, key) -> bool:
        return False


def _make_sessionless_store(original):
    def init_without_sessions(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.sessions = _NoSessions()

    return init_without_sessions


def _make_misrouted_replies(original):
    def reply_misrouted(self, clients, command, result, leader_hint=None):
        original(self, clients[1:] + clients[:1], command, result, leader_hint)

    return reply_misrouted


def _make_pruning_promise(original):
    def accepted_entries_unexecuted(self, after):
        return original(self, max(after, self.log.next_execute_slot - 1))

    return accepted_entries_unexecuted


@contextmanager
def _patched(cls, attr, make_value) -> Iterator[None]:
    original = cls.__dict__[attr]
    setattr(cls, attr, make_value(original))
    try:
        yield
    finally:
        setattr(cls, attr, original)


@contextmanager
def _vote_dedup() -> Iterator[None]:
    from repro.epaxos.replica import EPaxosReplica

    with _patched(EPaxosReplica, "_register_vote",
                  lambda _orig: staticmethod(_broken_register_vote)):
        yield


@contextmanager
def _key_index() -> Iterator[None]:
    from repro.epaxos.replica import EPaxosReplica

    with _patched(EPaxosReplica, "_record_key",
                  lambda _orig: _broken_record_key):
        yield


@contextmanager
def _planner_order() -> Iterator[None]:
    from repro.epaxos.graph import DependencyGraph

    with _patched(DependencyGraph, "execution_order",
                  _make_broken_execution_order):
        yield


@contextmanager
def _recovery_noop() -> Iterator[None]:
    from repro.epaxos.replica import EPaxosReplica

    with _patched(EPaxosReplica, "_record_prepare_reply",
                  lambda _orig: _noop_every_recovery):
        yield


@contextmanager
def _batch_unpack_reversed() -> Iterator[None]:
    from repro.statemachine.kvstore import KVStore

    with _patched(KVStore, "apply", _make_reversed_batch_apply):
        yield


@contextmanager
def _session_dedup_off() -> Iterator[None]:
    from repro.statemachine.kvstore import KVStore

    with _patched(KVStore, "__init__", _make_sessionless_store):
        yield


@contextmanager
def _reply_misroute() -> Iterator[None]:
    from repro.protocol.base import Replica

    with _patched(Replica, "_reply_to_clients", _make_misrouted_replies):
        yield


@contextmanager
def _promise_prunes_executed() -> Iterator[None]:
    from repro.paxos.replica import MultiPaxosReplica

    with _patched(MultiPaxosReplica, "_accepted_entries", _make_pruning_promise):
        yield


@contextmanager
def _vote_count_early() -> Iterator[None]:
    from repro.quorum.tracker import VoteTracker

    with (_patched(VoteTracker, "ack", _make_early_ack),
          _patched(VoteTracker, "ack_all", _make_early_ack)):
        yield


@contextmanager
def _phase2_quorum_one() -> Iterator[None]:
    from repro.quorum.systems import MajorityQuorum

    with _patched(MajorityQuorum, "phase2_size", lambda _orig: property(lambda self: 1)):
        yield


#: Mutation name -> context manager factory.  The first four live in the
#: EPaxos stack, so mutation-fuzz runs of those should use an epaxos-only
#: profile (``recovery-noop`` bites only where recovery runs); the next two
#: only bite on runs that batch; the next three only on the Paxos family
#: (``promise-prunes-executed`` only across a leader change); the last only
#: where a retried command commits twice.
MUTATIONS: Dict[str, object] = {
    "vote-dedup": _vote_dedup,
    "key-index": _key_index,
    "planner-order": _planner_order,
    "recovery-noop": _recovery_noop,
    "batch-unpack-reversed": _batch_unpack_reversed,
    "reply-misroute": _reply_misroute,
    "vote-count-early": _vote_count_early,
    "phase2-quorum-one": _phase2_quorum_one,
    "promise-prunes-executed": _promise_prunes_executed,
    "session-dedup-off": _session_dedup_off,
}


@contextmanager
def apply_mutation(name: Optional[str]) -> Iterator[None]:
    """Apply one named mutation for the duration of the block.

    ``None`` is a no-op context, so callers can thread an optional
    mutation name through without branching.
    """
    if name is None:
        yield
        return
    if name not in MUTATIONS:
        known = ", ".join(sorted(MUTATIONS))
        raise KeyError(f"unknown mutation {name!r}; known: {known}")
    with MUTATIONS[name]():
        yield
