"""The replicated command log shared by Multi-Paxos and PigPaxos.

Each slot holds at most one accepted command together with the ballot under
which it was accepted.  The log tracks three monotone frontiers:

* the highest slot that holds any entry,
* the commit frontier (all slots committed up to and including it), and
* the execute frontier (all slots executed against the state machine).

Execution never skips a gap: a committed slot is executed only when every
earlier slot has been executed, which is what gives Paxos/PigPaxos their
linearizable total order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import StateMachineError


@dataclass(slots=True)
class LogEntry:
    """State of a single consensus slot."""

    slot: int
    ballot: Tuple[int, int]
    command: object
    committed: bool = False
    executed: bool = False


class ReplicatedLog:
    """Slot-indexed log with gap-aware in-order execution.

    ``dirty_slots`` records every slot whose entry was created, replaced or
    committed through :meth:`accept`/:meth:`commit` since a consumer last
    cleared it.  The Paxos commit-frontier scan uses it to re-examine only
    slots that could have become committable instead of rescanning its whole
    announced window per message (which was quadratic across a recovery
    gap); the commits that scan makes itself, on entries it already holds,
    are the one change it does not need to be told about.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, LogEntry] = {}
        #: ``get(slot)`` -> the slot's :class:`LogEntry` or None.  The dict's
        #: own bound method: the frontier scans probe once per slot.
        self.get = self._entries.get
        self._next_execute = 1
        self._max_slot = 0
        self.dirty_slots: set = set()

    # ----------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, slot: int) -> bool:
        return slot in self._entries

    @property
    def max_slot(self) -> int:
        """Highest slot that holds an entry (0 when empty)."""
        return self._max_slot

    @property
    def next_execute_slot(self) -> int:
        """The lowest slot that has not been executed yet."""
        return self._next_execute

    @property
    def executed_count(self) -> int:
        return self._next_execute - 1

    def entries(self) -> Iterator[LogEntry]:
        for slot in sorted(self._entries):
            yield self._entries[slot]

    # ----------------------------------------------------------------- writes
    def accept(self, slot: int, ballot: Tuple[int, int], command: object) -> LogEntry:
        """Record ``command`` as accepted in ``slot`` under ``ballot``.

        A slot may be overwritten by an entry with a higher or equal ballot
        (leader re-proposal); overwriting a committed slot with a different
        command is a safety violation and raises.
        """
        if slot < 1:
            raise StateMachineError(f"slots are 1-based, got {slot}")
        entries = self._entries
        committed = False
        # A membership test, not ``.get``: nearly every accept is of a fresh
        # slot, so the common case costs no call.
        if slot in entries:
            existing = entries[slot]
            committed = existing.committed
            if committed and existing.command is not command:
                same_uid = getattr(existing.command, "uid", None) == getattr(command, "uid", object())
                if not same_uid:
                    raise StateMachineError(
                        f"attempt to overwrite committed slot {slot} with a different command"
                    )
            if ballot < existing.ballot and not committed:
                # Stale accept from an older ballot: keep the newer entry.
                return existing
        entry = LogEntry(slot=slot, ballot=ballot, command=command, committed=committed)
        entries[slot] = entry
        self.dirty_slots.add(slot)
        if slot > self._max_slot:
            self._max_slot = slot
        return entry

    def commit(self, slot: int, ballot: Tuple[int, int], command: object) -> LogEntry:
        """Mark ``slot`` committed with ``command`` (idempotent)."""
        entry = self._entries.get(slot)
        if entry is None:
            entry = self.accept(slot, ballot, command)
        elif not entry.committed:
            entry.command = command
            entry.ballot = ballot
        elif getattr(entry.command, "uid", None) != getattr(command, "uid", None):
            raise StateMachineError(f"conflicting commit for slot {slot}")
        entry.committed = True
        self.dirty_slots.add(slot)
        return entry

    def is_committed(self, slot: int) -> bool:
        entry = self._entries.get(slot)
        return entry is not None and entry.committed

    def committed_through(self, frontier: int) -> int:
        """Highest slot ``s >= frontier`` with every slot in ``(frontier, s]`` committed.

        The commit-frontier advance as one call, instead of an
        :meth:`is_committed` call per slot.
        """
        entries = self._entries
        slot = frontier + 1
        while slot in entries and entries[slot].committed:
            slot += 1
        return slot - 1

    # ----------------------------------------------------------------- execute
    def execute_ready(self, apply_fn: Callable[[object], object]) -> List[Tuple[LogEntry, object]]:
        """Execute every ready entry through ``apply_fn`` and advance the frontier.

        Runs after every commit-frontier advance, and most of those find
        nothing new to execute: the loop probes the dict directly.
        """
        entries = self._entries
        executed: List[Tuple[LogEntry, object]] = []
        slot = self._next_execute
        while slot in entries:
            entry = entries[slot]
            if not entry.committed:
                break
            result = apply_fn(entry.command)
            entry.executed = True
            executed.append((entry, result))
            slot += 1
            self._next_execute = slot
        return executed

    # ----------------------------------------------------------------- queries
    def first_gap(self) -> int:
        """Lowest slot >= 1 that holds no entry."""
        slot = 1
        while slot in self._entries:
            slot += 1
        return slot

    def uncommitted_slots(self) -> List[int]:
        return [slot for slot, entry in sorted(self._entries.items()) if not entry.committed]

    def committed_uids(self) -> Dict[int, Optional[int]]:
        """``slot -> command uid`` of every committed slot (for agreement checks)."""
        # lint: ok(no-unordered-iteration) a mapping to compare by item, not to walk; callers sort what they iterate
        return {slot: entry.command.uid for slot, entry in self._entries.items() if entry.committed}

    def committed_prefix_uids(self) -> List[Optional[int]]:
        """uids of the gap-free committed prefix, used to compare replicas."""
        entries = self._entries
        return [entries[slot].command.uid for slot in range(1, self.committed_through(0) + 1)]
