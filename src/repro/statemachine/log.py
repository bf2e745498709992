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

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import StateMachineError


class LogEntry:
    """State of a single consensus slot.

    One is created per accepted slot on every replica, so it is a plain
    slotted object with no ``__init__``: :meth:`ReplicatedLog.accept`, its
    only constructor, fills in ``slot``, ``ballot``, ``command`` and
    ``committed`` directly, and creating one costs no call.  Whether an
    entry has run is the log's execute frontier, not a flag on the entry.
    """

    __slots__ = ("slot", "ballot", "command", "committed")


class ReplicatedLog:
    """Slot-indexed log with gap-aware in-order execution.

    The log also learns the Paxos commit frontier a leader announces
    (:meth:`commit_announced`), and it keeps that scan incremental: a full
    rescan of the announced window per message was quadratic across a
    recovery gap.  Each slot is scanned once; ``gap_slots`` remembers the
    ones the scan could not commit, and ``dirty_slots`` the gaps due for
    re-judging -- their entry was created, replaced or committed since
    (:meth:`accept`/:meth:`commit` record it), or the announcing ballot
    changed.  Dirt is recorded only for gaps, so the common accept, of a
    slot no scan has reached, costs a membership test.
    """

    def __init__(self) -> None:
        #: ``slot -> LogEntry``.  Read-only outside this class; the frontier
        #: scan probes it by membership instead of a call per slot.
        self.by_slot: Dict[int, LogEntry] = {}
        #: ``get(slot)`` -> the slot's :class:`LogEntry` or None.
        self.get = self.by_slot.get
        self._next_execute = 1
        self._max_slot = 0
        # The commit-frontier scan's state (see commit_announced): the gaps,
        # the gaps due for re-judging, the highest slot ever scanned, and
        # the ballot of the last announcement.
        self.gap_slots: set = set()
        self.dirty_slots: set = set()
        self._scanned_upto = 0
        self._announcing_ballot: Optional[Tuple[int, int]] = None

    # ----------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self.by_slot)

    def __contains__(self, slot: int) -> bool:
        return slot in self.by_slot

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

    # ----------------------------------------------------------------- writes
    def accept(self, slot: int, ballot: Tuple[int, int], command: object) -> LogEntry:
        """Record ``command`` as accepted in ``slot`` under ``ballot``.

        A slot may be overwritten by an entry with a higher or equal ballot
        (leader re-proposal); overwriting a committed slot with a different
        command is a safety violation and raises.
        """
        if slot < 1:
            raise StateMachineError(f"slots are 1-based, got {slot}")
        entries = self.by_slot
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
        entry = LogEntry()
        entry.slot = slot
        entry.ballot = ballot
        entry.command = command
        entry.committed = committed
        entries[slot] = entry
        if slot in self.gap_slots:
            self.dirty_slots.add(slot)
        if slot > self._max_slot:
            self._max_slot = slot
        return entry

    def commit(self, slot: int, ballot: Tuple[int, int], command: object) -> LogEntry:
        """Mark ``slot`` committed with ``command`` (idempotent)."""
        entry = self.by_slot.get(slot)
        if entry is None:
            entry = self.accept(slot, ballot, command)
        elif not entry.committed:
            entry.command = command
            entry.ballot = ballot
        elif getattr(entry.command, "uid", None) != getattr(command, "uid", None):
            raise StateMachineError(f"conflicting commit for slot {slot}")
        entry.committed = True
        if slot in self.gap_slots:
            self.dirty_slots.add(slot)
        return entry

    def is_committed(self, slot: int) -> bool:
        entry = self.by_slot.get(slot)
        return entry is not None and entry.committed

    def committed_through(self, frontier: int) -> int:
        """Highest slot ``s >= frontier`` with every slot in ``(frontier, s]`` committed.

        The commit-frontier advance as one call, instead of an
        :meth:`is_committed` call per slot.
        """
        entries = self.by_slot
        slot = frontier + 1
        while slot in entries and entries[slot].committed:
            slot += 1
        return slot - 1

    def commit_announced(self, upto: int, ballot: Tuple[int, int], frontier: int) -> int:
        """Commit what a leader's ``commit_upto = upto`` under ``ballot`` vouches for.

        ``frontier`` is the caller's commit frontier, below ``upto``; returns
        the new one.  Every uncommitted slot in ``(frontier, upto]`` whose
        entry was accepted under ``ballot`` commits; one without an entry,
        or with an entry of another ballot, stays a gap and holds the
        frontier below ``upto`` until a fill or a later announcement covers
        it.  The result is exactly that of rescanning the whole window,
        but each slot is scanned once and a gap is re-judged only when it
        is dirty (see the class docstring).
        """
        entries = self.by_slot
        gaps = self.gap_slots
        dirty = self.dirty_slots
        if ballot != self._announcing_ballot:
            # Another ballot is announcing: every remembered gap is re-judged.
            self._announcing_ballot = ballot
            dirty |= gaps
        if dirty:
            # Dirt above the announcement waits for one that covers it.
            due = [slot for slot in dirty if slot <= upto]
            dirty.difference_update(due)
            for slot in due:
                if slot in entries:
                    entry = entries[slot]
                    if entry.ballot == ballot or entry.committed:
                        entry.committed = True
                        gaps.discard(slot)
        start = self._scanned_upto + 1
        if start <= frontier:
            start = frontier + 1
        for slot in range(start, upto + 1):
            if slot in entries:
                entry = entries[slot]
                if entry.ballot == ballot or entry.committed:
                    entry.committed = True
                    continue
            gaps.add(slot)
        if upto > self._scanned_upto:
            self._scanned_upto = upto
        # committed_through(frontier), inlined: one frame per announcement.
        slot = frontier + 1
        while slot in entries and entries[slot].committed:
            slot += 1
        return slot - 1

    # ----------------------------------------------------------------- execute
    def execute_ready(
        self,
        apply_fn: Callable[[object], object],
        results: Optional[List[Tuple[LogEntry, object]]] = None,
    ) -> int:
        """Execute every ready entry through ``apply_fn`` and advance the frontier.

        Returns how many entries ran.  Each ``(entry, result)`` pair is
        appended to ``results`` when a list is given: only a replica with
        clients to answer needs them, so a follower passes none.  Runs after
        every commit-frontier advance, and most of those find nothing new
        to execute: the loop probes the dict directly.
        """
        entries = self.by_slot
        start = slot = self._next_execute
        while slot in entries:
            entry = entries[slot]
            if not entry.committed:
                break
            result = apply_fn(entry.command)
            if results is not None:
                results.append((entry, result))
            slot += 1
            self._next_execute = slot
        return slot - start

    # ----------------------------------------------------------------- queries
    def committed_uids(self) -> Dict[int, Optional[int]]:
        """``slot -> command uid`` of every committed slot (for agreement checks)."""
        # lint: ok(no-unordered-iteration) a mapping to compare by item, not to walk; callers sort what they iterate
        return {slot: entry.command.uid for slot, entry in self.by_slot.items() if entry.committed}

    def committed_prefix_uids(self) -> List[Optional[int]]:
        """uids of the gap-free committed prefix, used to compare replicas."""
        entries = self.by_slot
        return [entries[slot].command.uid for slot in range(1, self.committed_through(0) + 1)]
