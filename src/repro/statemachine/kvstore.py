"""In-memory key-value store applied by every replica, with at-most-once sessions.

Equivalent to Paxi's ``Database`` component: a dictionary keyed by string,
with GET/PUT/DELETE semantics.  Values are stored verbatim when provided;
when a command carries only a payload size (the common case in throughput
benchmarks) a compact placeholder is stored so memory stays bounded.

The store also owns the client sessions that make execution at-most-once.
Replicas must apply each client command exactly once even when it is
committed more than once: a client that times out re-sends the *same*
command, and the retry can land in a second Paxos slot (old leader's
proposal survives recovery) or a second EPaxos instance (the retry reaches
a different opportunistic command leader).  Every replica executes the same
committed sequence, so filtering duplicates at apply time keeps all state
machines identical -- but an unbounded per-client result map grows forever
under long-lived clients.

A session is, per client, an LRU window of the most recent ``window``
applied request ids with their results; a second LRU bounds the number of
sessions themselves (``max_clients``), so a replica serving a long stream of
short-lived clients drops the sessions of clients it has not heard from
longest.  A retry that arrives while its original is still inside both
windows gets the cached result back (at-most-once preserved); entries beyond
either window belong to requests answered long ago.  Both bounds are counts,
not times: closed-loop clients have at most one request in flight and
open-loop clients a handful, so even small windows comfortably cover every
retry the harness can produce.  Both LRUs are insertion-ordered dicts: a
touch is a delete and re-insert, an eviction drops the first key.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.statemachine.command import CommandBatch, CommandResult, NoOp, OpType

#: Default per-client window; far larger than any in-flight request count
#: the workload generators produce, small enough to bound memory.
DEFAULT_SESSION_WINDOW = 256

#: Default bound on concurrently remembered clients (per key, when scoped by key).
DEFAULT_MAX_CLIENTS = 4096

_GET, _PUT, _DELETE = OpType.GET, OpType.PUT, OpType.DELETE


class _Session(dict):
    """One client's ``request_id -> result`` LRU, least recently used first.

    ``size`` counts its entries, so bounding the window costs no ``len``
    call; a slotted dict subclass with no ``__init__``, so opening one costs
    no call either.
    """

    __slots__ = ("size",)


class KVStore:
    """A deterministic in-memory key-value store with client sessions.

    ``per_key`` picks the session scope, fixed by the replica class that
    owns the store.  Multi-Paxos executes one total order, so one table of
    ``client -> {request -> result}`` serves every key.  EPaxos orders only
    conflicting commands, so its store keeps one such table per key (see
    :meth:`apply`).

    ``sessions`` is read-only outside this class: ``client -> session`` (or
    ``key -> client -> session`` per key), least recently used first, where
    a session maps ``request_id -> result``, least recently used first.
    """

    def __init__(
        self,
        window: int = DEFAULT_SESSION_WINDOW,
        max_clients: int = DEFAULT_MAX_CLIENTS,
        per_key: bool = False,
    ) -> None:
        if window < 1:
            raise ValueError(f"session window must be >= 1, got {window}")
        if max_clients < 1:
            raise ValueError(f"max_clients must be >= 1, got {max_clients}")
        #: Both bounds are fixed at construction.
        self.window = window
        self.max_clients = max_clients
        self.per_key = per_key
        self._data: Dict[str, str] = {}
        self.sessions: Dict[object, dict] = {}
        #: Commands applied so far (NoOps included, duplicates not).
        self.applied_count = 0
        #: Duplicates answered from a session instead of applied.
        self.duplicates = 0
        #: Request ids dropped from a full window.
        self.evictions = 0
        #: Whole sessions dropped by the client bound.
        self.session_evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str) -> Optional[str]:
        return self._data.get(key)

    def apply(self, command):
        """Apply a committed ``Command``, ``CommandBatch`` or ``NoOp`` at most once.

        Returns the command's :class:`CommandResult`, or for a batch the
        tuple of its sub-commands' results in batch order -- what the
        leader's reply path fans back out.  A sub-command is applied exactly
        as if it had occupied its own slot, so unpacking on every replica
        keeps all state machines identical.  A command with no session
        identity (``client_id < 0`` or ``request_id <= 0``) always applies.

        Why dedup here: the same client command can legitimately be
        committed twice -- in two Paxos slots (a client retries against a
        new leader while the old leader's proposal survives in some
        follower's log and is re-proposed during recovery) or in two EPaxos
        instances (the retry reaches a second opportunistic leader).  Both
        must commit and execute, but applying the command twice would let
        the second application clobber writes ordered between the two, a
        linearizability violation.  The cached result lets the duplicate's
        leader still answer its client.  Applied ids are tracked per client,
        not as a high-water mark: open-loop clients keep several requests
        in flight, so a client's commands may commit out of request-id
        order and a mark would drop legitimate first executions.

        Why EPaxos scopes by key: it only orders *conflicting* commands, so
        every eviction decision must depend solely on same-key applies or it
        diverges across replicas (cross-key interleaving legally differs).
        Duplicate instances carry the same key, so they conflict and execute
        in the same relative order everywhere; one table per key, whose
        request windows and client LRU are driven only by that key's
        applies, keeps dedup replica-deterministic.  Memory stays
        proportional to the store itself: keys x bounded sessions x bounded
        window.

        :attr:`duplicates` grows by the number of commands answered from a
        session, so a caller reads how many one call skipped as its delta.
        """
        if type(command) is NoOp:
            self.applied_count += 1
            return CommandResult(command.uid, True)
        batch = type(command) is CommandBatch
        data = self._data
        tables = self.sessions
        sessions = tables
        results = ()
        for sub in command.commands if batch else (command,):
            client_id = sub.client_id
            request_id = sub.request_id
            anonymous = client_id < 0 or request_id <= 0
            if not anonymous:
                if self.per_key:
                    key = sub.key
                    if key in tables:
                        sessions = tables[key]
                    else:
                        sessions = tables[key] = {}
                if client_id in sessions:
                    session = sessions[client_id]
                    del sessions[client_id]
                    sessions[client_id] = session
                    if request_id in session:
                        result = session[request_id]
                        del session[request_id]
                        session[request_id] = result
                        self.duplicates += 1
                        results += (result,)
                        continue
                else:
                    session = sessions[client_id] = _Session()
                    session.size = 0
                    if len(sessions) > self.max_clients:
                        del sessions[next(iter(sessions))]
                        self.session_evictions += 1
            self.applied_count += 1
            op = sub.op
            key = sub.key
            if op is _GET:
                value = data[key] if key in data else None
                result = CommandResult(sub.uid, True, value, value is not None)
            elif op is _PUT:
                existed = key in data
                value = sub.value
                data[key] = value if value is not None else f"<{sub.payload_size}B>"
                result = CommandResult(sub.uid, True, None, existed)
            elif op is _DELETE:
                existed = key in data
                if existed:
                    del data[key]
                result = CommandResult(sub.uid, True, None, existed)
            else:
                result = CommandResult(sub.uid, False)
            if not anonymous:
                session[request_id] = result
                if session.size < self.window:
                    session.size += 1
                else:
                    del session[next(iter(session))]
                    self.evictions += 1
            results += (result,)
        return results if batch else results[0]

    def items(self) -> Dict[str, str]:
        """Copy of the current contents."""
        return dict(self._data)
