"""Unit tests for commands, the KV store and its client sessions, and the replicated log."""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.errors import StateMachineError
from repro.protocol.ballot import Ballot
from repro.statemachine.command import Command, CommandBatch, NoOp, OpType
from repro.statemachine.kvstore import KVStore
from repro.statemachine.log import ReplicatedLog


def put(key: str = "k", size: int = 8, uid_hint: int = 0) -> Command:
    return Command(op=OpType.PUT, key=key, payload_size=size)


def get(key: str = "k") -> Command:
    return Command(op=OpType.GET, key=key, payload_size=0)


class TestCommand:
    def test_read_write_flags(self):
        assert get().is_read and not get().is_write
        assert put().is_write and not put().is_read
        delete = Command(op=OpType.DELETE, key="k")
        assert delete.is_write

    def test_payload_bytes_include_key_and_value(self):
        command = Command(op=OpType.PUT, key="abcd", payload_size=100)
        assert command.payload_bytes == 104
        read = Command(op=OpType.GET, key="abcd")
        assert read.payload_bytes == 4

    def test_uids_are_unique(self):
        assert put().uid != put().uid

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Command(op=OpType.PUT, key="k", payload_size=-1)

    def test_conflicts_same_key_write(self):
        a = put("x")
        b = get("x")
        c = get("y")
        assert a.conflicts_with(b)
        assert b.conflicts_with(a)
        assert not b.conflicts_with(c)
        assert not get("x").conflicts_with(get("x"))  # read-read never conflicts

    def test_noop_has_no_payload(self):
        noop = NoOp()
        assert noop.payload_bytes == 0
        assert not noop.is_read and not noop.is_write


class TestKVStore:
    def test_put_get_delete_roundtrip(self):
        store = KVStore()
        store.apply(Command(op=OpType.PUT, key="a", value="1"))
        assert store.get("a") == "1"
        result = store.apply(Command(op=OpType.GET, key="a"))
        assert result.value == "1" and result.existed
        store.apply(Command(op=OpType.DELETE, key="a"))
        assert store.get("a") is None

    def test_get_missing_key(self):
        store = KVStore()
        result = store.apply(Command(op=OpType.GET, key="missing"))
        assert result.success and result.value is None and not result.existed

    def test_put_without_value_stores_placeholder(self):
        store = KVStore()
        store.apply(Command(op=OpType.PUT, key="a", payload_size=128))
        assert store.get("a") == "<128B>"

    def test_applied_count_includes_noops(self):
        store = KVStore()
        store.apply(NoOp())
        store.apply(Command(op=OpType.PUT, key="a", value="1"))
        assert store.applied_count == 2


class TestReplicatedLog:
    def test_accept_and_commit_and_execute_in_order(self):
        log = ReplicatedLog()
        ballot = Ballot(1, 0)
        commands = [put(f"k{i}") for i in range(3)]
        for slot, command in enumerate(commands, start=1):
            log.accept(slot, ballot, command)
            log.commit(slot, ballot, command)
        store = KVStore()
        executed = []
        assert log.execute_ready(store.apply, executed) == 3
        assert [entry.slot for entry, _ in executed] == [1, 2, 3]
        assert log.next_execute_slot == 4

    def test_execution_stops_at_gap(self):
        log = ReplicatedLog()
        ballot = Ballot(1, 0)
        log.commit(1, ballot, put("a"))
        log.commit(3, ballot, put("c"))
        executed = []
        assert log.execute_ready(lambda c: None, executed) == 1
        assert [entry.slot for entry, _ in executed] == [1]
        # Filling the gap unblocks the rest; without a list only the count
        # comes back.
        log.commit(2, ballot, put("b"))
        assert log.execute_ready(lambda c: None) == 2
        assert log.next_execute_slot == 4

    def test_commit_is_idempotent(self):
        log = ReplicatedLog()
        ballot = Ballot(1, 0)
        command = put("a")
        log.commit(2, ballot, command)
        log.commit(2, ballot, command)
        assert log.is_committed(2)

    def test_conflicting_commit_raises(self):
        log = ReplicatedLog()
        ballot = Ballot(1, 0)
        log.commit(1, ballot, put("a"))
        with pytest.raises(StateMachineError):
            log.commit(1, ballot, put("b"))

    def test_overwriting_committed_slot_with_other_command_raises(self):
        log = ReplicatedLog()
        ballot = Ballot(1, 0)
        log.commit(1, ballot, put("a"))
        with pytest.raises(StateMachineError):
            log.accept(1, Ballot(2, 1), put("b"))

    def test_stale_ballot_accept_does_not_overwrite(self):
        log = ReplicatedLog()
        newer = Ballot(3, 1)
        older = Ballot(1, 0)
        first = put("new")
        log.accept(1, newer, first)
        log.accept(1, older, put("old"))
        assert log.get(1).command is first

    def test_slots_are_one_based(self):
        log = ReplicatedLog()
        with pytest.raises(StateMachineError):
            log.accept(0, Ballot(1, 0), put())

    def test_sparse_log_keeps_its_gap(self):
        log = ReplicatedLog()
        ballot = Ballot(1, 0)
        log.accept(1, ballot, put("a"))
        log.accept(3, ballot, put("c"))
        assert (len(log), log.max_slot) == (2, 3)
        assert 2 not in log and log.get(2) is None
        assert not log.is_committed(1) and not log.is_committed(3)

    def test_committed_prefix_uids_stops_at_gap(self):
        log = ReplicatedLog()
        ballot = Ballot(1, 0)
        a, c = put("a"), put("c")
        log.commit(1, ballot, a)
        log.commit(3, ballot, c)
        assert log.committed_prefix_uids() == [a.uid]


def request(client: int, request_id: int, key: str = "k", op: OpType = OpType.PUT) -> Command:
    """A command with a session identity; the value names its origin."""
    value = f"{client}.{request_id}" if op is OpType.PUT else None
    return Command(op=op, key=key, value=value, client_id=client, request_id=request_id)


def cached(store: KVStore, client: int, request_id: int, key: str = "k"):
    """The session result of ``(client, request_id)``, touching no LRU; None if absent."""
    sessions = store.sessions.get(key, {}) if store.per_key else store.sessions
    return sessions.get(client, {}).get(request_id)


class ReferenceSessions:
    """The doubly bounded LRU the store's sessions must match, as plain get/put.

    ``get`` touches the session and the entry it finds; ``put`` records a
    result, evicting the least recently used request beyond ``window`` or
    session beyond ``max_clients``.
    """

    def __init__(self, window: int, max_clients: int) -> None:
        self.window = window
        self.max_clients = max_clients
        self.sessions = OrderedDict()
        self.evictions = 0
        self.session_evictions = 0

    def get(self, client, request_id):
        session = self.sessions.get(client)
        if session is None:
            return None
        self.sessions.move_to_end(client)
        result = session.get(request_id)
        if result is not None:
            session.move_to_end(request_id)
        return result

    def put(self, client, request_id, result) -> None:
        session = self.sessions.get(client)
        if session is None:
            self.sessions[client] = OrderedDict({request_id: result})
            while len(self.sessions) > self.max_clients:
                self.sessions.popitem(last=False)
                self.session_evictions += 1
            return
        self.sessions.move_to_end(client)
        session[request_id] = result
        while len(session) > self.window:
            session.popitem(last=False)
            self.evictions += 1


class TestClientSessionCache:
    """At-most-once client sessions, owned and applied by ``KVStore.apply``."""

    def test_put_then_get_roundtrips(self):
        store = KVStore(window=4)
        first = store.apply(request(1000, 1))
        assert cached(store, 1000, 1) is first
        assert cached(store, 1000, 2) is None
        assert cached(store, 1001, 1) is None
        # Applying the same request again answers from the session.
        assert store.apply(request(1000, 1)) is first
        assert (store.applied_count, store.duplicates) == (1, 1)

    def test_window_evicts_oldest_entry(self):
        store = KVStore(window=3)
        results = {rid: store.apply(request(1000, rid)) for rid in (1, 2, 3, 4)}
        assert cached(store, 1000, 1) is None  # evicted
        assert cached(store, 1000, 2) is results[2]
        assert cached(store, 1000, 4) is results[4]
        assert store.evictions == 1
        assert len(store.sessions[1000]) == 3

    def test_get_refreshes_lru_position(self):
        store = KVStore(window=2)
        first = store.apply(request(1000, 1))
        store.apply(request(1000, 2))
        assert store.apply(request(1000, 1)) is first  # touch 1 so 2 becomes oldest
        store.apply(request(1000, 3))
        assert cached(store, 1000, 2) is None
        assert cached(store, 1000, 1) is first

    def test_windows_are_per_client(self):
        store = KVStore(window=2)
        results = {}
        for client in (1000, 1001):
            for request_id in (1, 2):
                results[client, request_id] = store.apply(request(client, request_id))
        assert sum(len(session) for session in store.sessions.values()) == 4
        assert len(store.sessions) == 2
        assert cached(store, 1001, 1) is results[1001, 1]

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            KVStore(window=0)
        with pytest.raises(ValueError):
            KVStore(max_clients=0)

    def test_apply_once_is_get_then_put_on_a_miss(self):
        """The store's inline filter against the plain get/put reference,
        under a seeded stream small enough that both the per-client window
        and the client bound evict: same results, same duplicate verdicts,
        same eviction counts, same LRU order inside and across sessions --
        in both scopes: one table (Paxos) and one table per key (EPaxos)."""
        for per_key in (False, True):
            self._check_against_reference(per_key)

    @staticmethod
    def _check_against_reference(per_key: bool) -> None:
        import random

        def lru_order(tables):
            return [(client, list(session)) for client, session in tables.items()]

        rng = random.Random(22)
        store = KVStore(window=3, max_clients=4, per_key=per_key)
        references = {}
        duplicates = 0

        for step in range(3000):
            client, request_id = rng.randrange(7), rng.randrange(1, 9)
            key = rng.choice("abc") if per_key else "k"
            command = request(client, request_id, key=key)
            applied_before, duplicates_before = store.applied_count, store.duplicates
            result = store.apply(command)
            duplicate = store.duplicates - duplicates_before

            reference = references.get(key)
            if reference is None:
                reference = references[key] = ReferenceSessions(window=3, max_clients=4)
            expected = reference.get(client, request_id)
            if expected is None:
                assert result.command_uid == command.uid
                reference.put(client, request_id, result)
            else:
                assert result is expected
            assert duplicate == (expected is not None)
            # Applied iff not a duplicate.
            assert store.applied_count - applied_before == 1 - duplicate
            if per_key:
                assert [(k, lru_order(tables)) for k, tables in store.sessions.items()] == [
                    (k, lru_order(ref.sessions)) for k, ref in references.items()
                ]
            else:
                assert lru_order(store.sessions) == lru_order(reference.sessions)
            duplicates += duplicate
        assert store.duplicates == duplicates
        assert (store.evictions, store.session_evictions) == (
            sum(ref.evictions for ref in references.values()),
            sum(ref.session_evictions for ref in references.values()),
        )
        # The stream really exercised all three outcomes.
        assert duplicates > 100 and store.evictions > 100 and store.session_evictions > 100

    def test_client_churn_evicts_idle_sessions(self):
        store = KVStore(window=8, max_clients=2)
        a = store.apply(request(1000, 1))
        store.apply(request(1001, 1))
        assert store.apply(request(1000, 1)) is a  # touch 1000 so 1001 is idle
        c = store.apply(request(1002, 1))          # third client: evict 1001 wholesale
        assert len(store.sessions) == 2
        assert store.session_evictions == 1
        assert cached(store, 1001, 1) is None
        assert cached(store, 1000, 1) is a
        assert cached(store, 1002, 1) is c

    def test_batch_with_a_duplicate_sub_command_applies_the_rest(self):
        store = KVStore()
        first = store.apply(request(1000, 1))
        retry = request(1002, 1)
        batch = CommandBatch([request(1001, 1), request(1000, 1), retry, retry,
                              request(1003, 1, op=OpType.GET)])
        results = store.apply(batch)
        assert isinstance(results, tuple) and len(results) == 5
        assert results[0].command_uid == batch.commands[0].uid
        assert results[1] is first  # answered from the session, not re-applied
        assert results[2].command_uid == retry.uid and results[3] is results[2]
        assert results[4].value == "1002.1"  # the batch applied in order
        assert store.get("k") == "1002.1"
        assert (store.applied_count, store.duplicates) == (4, 2)

    def test_noop_applies_without_a_session(self):
        store = KVStore()
        noop = NoOp()
        result = store.apply(noop)
        assert result.success and result.command_uid == noop.uid and result.value is None
        assert (store.applied_count, store.duplicates, store.sessions) == (1, 0, {})

    @pytest.mark.parametrize("client, request_id", [(-1, 1), (1000, 0)])
    def test_anonymous_commands_always_apply(self, client, request_id):
        store = KVStore()
        for value in ("first", "second"):
            store.apply(Command(op=OpType.PUT, key="k", value=value,
                                client_id=client, request_id=request_id))
        assert store.get("k") == "second"
        assert (store.applied_count, store.duplicates, store.sessions) == (2, 0, {})

    def test_per_key_batch_files_each_sub_command_under_its_own_key(self):
        """EPaxos scope: a batch mixing keys keeps one table per key, and a
        window of one on key ``b`` leaves key ``a``'s entry in place."""
        store = KVStore(window=1, per_key=True)
        batch = CommandBatch([request(1000, 1, key="a"), request(1000, 2, key="b")])
        results = store.apply(batch)
        assert store.sessions == {"a": {1000: {1: results[0]}}, "b": {1000: {2: results[1]}}}
        assert store.apply(request(1000, 1, key="a")) is results[0]
        assert (store.applied_count, store.duplicates, store.evictions) == (2, 1, 0)
