"""Bounded client-session result caches for at-most-once execution.

Replicas must apply each client command exactly once even when it is
committed more than once: a client that times out re-sends the *same*
command, and the retry can land in a second Paxos slot (old leader's
proposal survives recovery) or a second EPaxos instance (the retry reaches
a different opportunistic command leader).  Every replica executes the same
committed sequence, so filtering duplicates at apply time keeps all state
machines identical -- but an unbounded per-client result map grows forever
under long-lived clients (a ROADMAP open item since PR 1).

:class:`ClientSessionCache` keeps, per client, an LRU window of the most
recent ``window`` applied request ids with their results, and bounds the
number of client sessions themselves with a second LRU (``max_clients``):
a replica serving a long stream of short-lived clients drops the sessions
of clients it has not heard from longest.  A retry that arrives while its
original is still inside both windows gets the cached result back
(at-most-once preserved); entries beyond either window belong to requests
answered long ago.  Both bounds are counts, not times: closed-loop clients
have at most one request in flight and open-loop clients a handful, so
even small windows comfortably cover every retry the harness can produce.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Optional, Tuple

#: Default per-client window; far larger than any in-flight request count
#: the workload generators produce, small enough to bound memory.
DEFAULT_SESSION_WINDOW = 256

#: Default bound on concurrently remembered clients.
DEFAULT_MAX_CLIENTS = 4096


class ClientSessionCache:
    """Doubly bounded LRU of ``(session_id, request_id) -> result``.

    ``session_id`` is any hashable session identity: Multi-Paxos uses the
    client id, EPaxos a ``(client_id, key)`` pair (see the replicas for why
    the scoping differs).
    """

    def __init__(
        self,
        window: int = DEFAULT_SESSION_WINDOW,
        max_clients: int = DEFAULT_MAX_CLIENTS,
    ) -> None:
        if window < 1:
            raise ValueError(f"session window must be >= 1, got {window}")
        if max_clients < 1:
            raise ValueError(f"max_clients must be >= 1, got {max_clients}")
        self._window = window
        self._max_clients = max_clients
        self._sessions: "OrderedDict[Hashable, OrderedDict[int, object]]" = OrderedDict()
        self.evictions = 0
        self.session_evictions = 0

    # ----------------------------------------------------------------- access
    @property
    def window(self) -> int:
        return self._window

    @property
    def max_clients(self) -> int:
        return self._max_clients

    def get(self, session_id: Hashable, request_id: int) -> Optional[object]:
        """The cached result of ``(session_id, request_id)``, or ``None``."""
        session = self._sessions.get(session_id)
        if session is None:
            return None
        self._sessions.move_to_end(session_id)
        result = session.get(request_id)
        if result is not None:
            session.move_to_end(request_id)
        return result

    def put(self, session_id: Hashable, request_id: int, result: object) -> None:
        """Record an applied command's result, evicting beyond the windows.

        Only what grew can overflow: a new session can push the client count
        past ``max_clients`` (its single entry cannot exceed the window), a
        new request id can push an existing session past ``window``, and a
        re-touch grows nothing.
        """
        sessions = self._sessions
        session = sessions.get(session_id)
        if session is None:
            # A fresh insert already lands at the MRU end of both dicts, so
            # the explicit move_to_end calls are only needed on re-touch.
            sessions[session_id] = OrderedDict({request_id: result})
            while len(sessions) > self._max_clients:
                sessions.popitem(last=False)
                self.session_evictions += 1
            return
        sessions.move_to_end(session_id)
        if request_id in session:
            session[request_id] = result
            session.move_to_end(request_id)
            return
        session[request_id] = result
        while len(session) > self._window:
            session.popitem(last=False)
            self.evictions += 1

    def apply_once(
        self,
        session_id: Hashable,
        request_id: int,
        apply: Callable[[object], object],
        command: object,
    ) -> Tuple[object, bool]:
        """The at-most-once filter as one operation: ``(result, duplicate)``.

        A request still inside both windows returns its cached result and
        ``duplicate=True`` without calling ``apply``; anything else is
        applied and recorded.  Exactly :meth:`get` followed, on a miss, by
        ``put(..., apply(command))`` -- same results, LRU order and eviction
        counts -- but the session is probed and touched once, which is what
        every replica pays per executed command.
        """
        sessions = self._sessions
        if session_id not in sessions:
            result = apply(command)
            sessions[session_id] = OrderedDict({request_id: result})
            while len(sessions) > self._max_clients:
                sessions.popitem(last=False)
                self.session_evictions += 1
            return result, False
        session = sessions[session_id]
        sessions.move_to_end(session_id)
        if request_id in session:
            session.move_to_end(request_id)
            return session[request_id], True
        result = session[request_id] = apply(command)
        while len(session) > self._window:
            session.popitem(last=False)
            self.evictions += 1
        return result, False

    # ----------------------------------------------------------------- stats
    def __len__(self) -> int:
        """Total cached entries across all clients."""
        return sum(len(session) for session in self._sessions.values())

    def client_count(self) -> int:
        return len(self._sessions)

    def session_size(self, session_id: Hashable) -> int:
        session = self._sessions.get(session_id)
        return 0 if session is None else len(session)
