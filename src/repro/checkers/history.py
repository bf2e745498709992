"""Operation-history recording for safety checking.

Every cluster's benchmark clients record into one :class:`HistoryRecorder`
(``build_cluster`` wires it; ``Cluster.history()`` reads it back): for every
client command, the invocation time, the completion time and the observed
result.  The resulting :class:`History` is what the linearizability checker
searches.

Operations are keyed by ``(client_id, request_id)``: a client that retries
a timed-out request re-sends the *same* command, so retries collapse onto
one operation whose invocation is the first send.  Operations that never
receive a successful reply stay *pending* -- the checker must allow them to
have taken effect at any point after their invocation, or never.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass(slots=True)
class Operation:
    """One client operation: an invocation and (maybe) a response."""

    client_id: int
    request_id: int
    op: str
    key: str
    value: Optional[str]
    invoked_at: float
    completed_at: Optional[float] = None
    output: Optional[str] = None
    found: Optional[bool] = None

    @property
    def pending(self) -> bool:
        """True when no successful response was ever observed."""
        return self.completed_at is None

    def signature(self) -> Tuple:
        """Stable, uid-free tuple used for determinism fingerprints."""
        return (
            self.client_id,
            self.request_id,
            self.op,
            self.key,
            self.value,
            round(self.invoked_at, 9),
            round(self.completed_at, 9) if self.completed_at is not None else None,
            self.output,
            self.found,
        )


class History:
    """An immutable-ish view over recorded operations."""

    def __init__(self, operations: List[Operation]) -> None:
        self._operations = operations

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations)

    def operations(self) -> List[Operation]:
        """All operations sorted by invocation time (ties: recording order)."""
        return sorted(
            self._operations,
            key=lambda op: (op.invoked_at, op.client_id, op.request_id),
        )

    def completed(self) -> List[Operation]:
        return [op for op in self.operations() if not op.pending]

    def pending(self) -> List[Operation]:
        return [op for op in self.operations() if op.pending]

    def per_key(self) -> Dict[str, List[Operation]]:
        """Operations grouped by key, each group in invocation order.

        A replicated KV store with independent keys is linearizable iff the
        sub-history of every key is linearizable, which makes the WGL search
        tractable even for long runs.
        """
        by_key: Dict[str, List[Operation]] = {}
        for op in self.operations():
            by_key.setdefault(op.key, []).append(op)
        return by_key

    def fingerprint(self) -> str:
        """SHA-256 over a stable serialization; equal for identical runs.

        Command uids are process-global and differ between two runs in the
        same interpreter, so the fingerprint is built from uid-free
        signatures only.
        """
        digest = hashlib.sha256()
        for op in self.operations():
            digest.update(repr(op.signature()).encode("utf-8"))
        return digest.hexdigest()


class HistoryRecorder:
    """Collects operations as clients invoke commands and observe replies."""

    def __init__(self) -> None:
        self._ops: Dict[Tuple[int, int], Operation] = {}

    def __len__(self) -> int:
        return len(self._ops)

    # ----------------------------------------------------------------- hooks
    def invoke(self, command, at: float) -> None:
        """Record a command's invocation (idempotent across client retries)."""
        key = (command.client_id, command.request_id)
        if key in self._ops:
            return
        value = command.value
        if value is None and command.op.value == "put":
            # KVStore stores a compact placeholder for size-only PUTs; the
            # linearizability model must predict the same stored value.
            value = f"<{command.payload_size}B>"
        self._ops[key] = Operation(
            client_id=command.client_id,
            request_id=command.request_id,
            op=command.op.value,
            key=command.key,
            value=value,
            invoked_at=at,
        )

    def complete(self, reply, at: float) -> None:
        """Record a successful reply for a previously invoked command."""
        operation = self._ops.get((reply.client_id, reply.request_id))
        if operation is None or operation.completed_at is not None:
            return
        operation.completed_at = at
        result = reply.result
        if result is not None:
            operation.output = result.value
            operation.found = result.existed

    # ----------------------------------------------------------------- views
    def history(self) -> History:
        # lint: ok(no-unordered-iteration) insertion order is invocation-recording order, which is the order the linearizability checker requires
        return History(list(self._ops.values()))
