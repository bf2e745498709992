"""Unit tests for commands, the KV store, the replicated log and sessions."""

from __future__ import annotations

import pytest

from repro.errors import StateMachineError
from repro.protocol.ballot import Ballot
from repro.statemachine.command import Command, NoOp, OpType
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

    def test_first_gap_and_uncommitted(self):
        log = ReplicatedLog()
        ballot = Ballot(1, 0)
        log.accept(1, ballot, put("a"))
        log.accept(3, ballot, put("c"))
        assert log.first_gap() == 2
        assert log.uncommitted_slots() == [1, 3]

    def test_committed_prefix_uids_stops_at_gap(self):
        log = ReplicatedLog()
        ballot = Ballot(1, 0)
        a, c = put("a"), put("c")
        log.commit(1, ballot, a)
        log.commit(3, ballot, c)
        assert log.committed_prefix_uids() == [a.uid]


class TestClientSessionCache:
    def test_put_then_get_roundtrips(self):
        from repro.statemachine.sessions import ClientSessionCache

        cache = ClientSessionCache(window=4)
        cache.put(1000, 1, "r1")
        assert cache.get(1000, 1) == "r1"
        assert cache.get(1000, 2) is None
        assert cache.get(1001, 1) is None

    def test_window_evicts_oldest_entry(self):
        from repro.statemachine.sessions import ClientSessionCache

        cache = ClientSessionCache(window=3)
        for request_id in (1, 2, 3, 4):
            cache.put(1000, request_id, f"r{request_id}")
        assert cache.get(1000, 1) is None  # evicted
        assert cache.get(1000, 2) == "r2"
        assert cache.get(1000, 4) == "r4"
        assert cache.evictions == 1
        assert cache.session_size(1000) == 3

    def test_get_refreshes_lru_position(self):
        from repro.statemachine.sessions import ClientSessionCache

        cache = ClientSessionCache(window=2)
        cache.put(1000, 1, "r1")
        cache.put(1000, 2, "r2")
        assert cache.get(1000, 1) == "r1"  # touch 1 so 2 becomes oldest
        cache.put(1000, 3, "r3")
        assert cache.get(1000, 2) is None
        assert cache.get(1000, 1) == "r1"

    def test_windows_are_per_client(self):
        from repro.statemachine.sessions import ClientSessionCache

        cache = ClientSessionCache(window=2)
        for client in (1000, 1001):
            for request_id in (1, 2):
                cache.put(client, request_id, f"{client}.{request_id}")
        assert len(cache) == 4
        assert cache.client_count() == 2
        assert cache.get(1001, 1) == "1001.1"

    def test_rejects_non_positive_window(self):
        from repro.statemachine.sessions import ClientSessionCache

        with pytest.raises(ValueError):
            ClientSessionCache(window=0)
        with pytest.raises(ValueError):
            ClientSessionCache(max_clients=0)

    def test_apply_once_is_get_then_put_on_a_miss(self):
        """The fused filter the replicas call against the plain get/put pair,
        under a seeded stream small enough that both the per-client window
        and the client bound evict: same results, same duplicate verdicts,
        same eviction counts, same LRU order inside and across sessions."""
        import random

        from repro.statemachine.sessions import ClientSessionCache

        def lru_order(cache):
            return [(sid, list(session)) for sid, session in cache._sessions.items()]

        rng = random.Random(22)
        fused = ClientSessionCache(window=3, max_clients=4)
        reference = ClientSessionCache(window=3, max_clients=4)
        applied = []
        duplicates = 0

        def apply(command):
            applied.append(command)
            return f"result-{command}"

        for step in range(3000):
            client, request = rng.randrange(7), rng.randrange(1, 9)
            applied_before = len(applied)
            result, duplicate = fused.apply_once(client, request, apply, step)

            expected = reference.get(client, request)
            expected_duplicate = expected is not None
            if expected is None:
                expected = f"result-{step}"
                reference.put(client, request, expected)

            assert (result, duplicate) == (expected, expected_duplicate)
            assert duplicate == (len(applied) == applied_before)  # applied iff not a duplicate
            assert lru_order(fused) == lru_order(reference)
            duplicates += duplicate
        assert (fused.evictions, fused.session_evictions) == (
            reference.evictions, reference.session_evictions)
        # The stream really exercised all three outcomes.
        assert duplicates > 100 and fused.evictions > 100 and fused.session_evictions > 100

    def test_client_churn_evicts_idle_sessions(self):
        from repro.statemachine.sessions import ClientSessionCache

        cache = ClientSessionCache(window=8, max_clients=2)
        cache.put(1000, 1, "a")
        cache.put(1001, 1, "b")
        assert cache.get(1000, 1) == "a"  # touch 1000 so 1001 is idle
        cache.put(1002, 1, "c")           # third client: evict 1001 wholesale
        assert cache.client_count() == 2
        assert cache.session_evictions == 1
        assert cache.get(1001, 1) is None
        assert cache.get(1000, 1) == "a"
        assert cache.get(1002, 1) == "c"
