"""The discrete-event simulator core.

:class:`Simulator` owns the virtual clock, the event heap, the random
streams and the metrics registry.  Components schedule work with
:meth:`Simulator.schedule` (relative delay) and may cancel it via the
returned :class:`Event` (its ``time``/``cancelled``/``cancel()`` are the
whole timer interface).  Fire-and-forget hot paths (the network fabric, the
node CPU queue) use :meth:`Simulator.post_at`, which skips the Event
allocation.

The heap is the simulator's own list of ``(time, seq, payload, args)``
entries in two flavours:

* ``(time, seq, Event, None)`` -- a cancellable timer pushed by
  :meth:`Simulator.schedule`; a cancelled one is dropped when it surfaces
  or at the next compaction, whichever comes first.
* ``(time, seq, callback, args)`` -- a call entry pushed by
  :meth:`Simulator.post_at` for the hot paths that never cancel.

``seq`` is a unique, monotonically increasing tiebreaker, so tuple
comparison resolves before reaching the payload, equal times fire in
schedule order and every run with the same seed is bit-for-bit
reproducible.  The flavour is told apart by ``entry[3] is None``.

CANONICAL ENTRY LAYOUT: :meth:`Simulator.post_at` is the one written-out
definition of a call entry.  It is hand-inlined at the three hottest
scheduling sites -- ``SimNode._send_as``/``SimNode._arrive_for``
(cluster/node.py) and ``SimNetwork.send`` (net/network.py) -- so changing
the entry shape means updating every one of them; grep for "post_at" to find
the list.  The message path's args are ``(src, dst, message, size)`` for
``SimNetwork.send``, ``(src, message, size)`` for the delivery entry (the
destination's ``arrive``) and ``(src, message)`` for the handler a node
queues behind its receive cost (dispatch happens at arrival, so that entry's
callback is the replica's handler itself); no envelope wraps the message.

COMPACTION: cancelled timers are not left to surface.  Once ``seq`` reaches
a mark, :meth:`Simulator.schedule` rebuilds the heap in place without them
(``heap[:] = live; heapify(heap)`` -- the :meth:`Simulator.run` loop
holds the same list object) and sets the next mark to
``seq + max(_COMPACT_FLOOR, len(heap))``.  Only timers are ever cancelled,
so the dead entries are at most the heap's size ``L`` after the last
compaction plus the timers pushed since: the heap holds its live entries
plus fewer than ``2 * max(L, _COMPACT_FLOOR)`` dead ones, and a rebuild
scans at most two entries per push since the one before (amortised O(1)).
``(time, seq)`` is unique, so the rebuild moves no entry in the pop order.

CRASHES: ``SimNode.crash`` (cluster/node.py) rebuilds the heap in place, as
compaction does, without what the machine owns: its queued sends and
handlers, and its replicas' timers (cancelled; :attr:`Event.owner` is the
machine, stamped by ``ShardReplicaHost.schedule``).  Entries are never
rewritten: each one fires as it was pushed or is gone.

The main loop in :meth:`Simulator.run` is deliberately inlined: one heap
traversal per event.  Any change here must keep the pop order identical; the
golden-fingerprint tests (``tests/test_golden_fingerprints.py``) are the
tripwire.
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RandomStreams

#: The fewest pushes between two compactions of the heap (see the module
#: docstring); above it, the heap's size after the last compaction.
_COMPACT_FLOOR = 128


class Event:
    """A timer: ``callback(*args)`` at virtual ``time`` unless cancelled first.

    ``owner`` is the machine whose crash cancels it, or ``None``.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "owner")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.owner: Any = None

    def cancel(self) -> None:
        """Mark the timer dead (idempotent).

        The run loop drops it when it surfaces, or the next compaction of
        the heap does, whichever comes first (see the module docstring).
        """
        self.cancelled = True


class Simulator:
    """Single-threaded deterministic discrete-event simulator."""

    def __init__(self, seed: int = 0) -> None:
        #: Current virtual time in seconds.  A plain attribute, not a
        #: property: hot paths read it, and a property read is a call.
        #: Only :meth:`run` advances it.
        self.now = 0.0
        self._heap: List[tuple] = []
        self._seq = 0
        self._compact_at = _COMPACT_FLOOR
        self._streams = RandomStreams(seed)
        self._metrics = MetricsRegistry()
        self._running = False
        self._events_processed = 0

    # ------------------------------------------------------------------ clock
    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful for progress/debugging)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Entries still due to fire: call entries and uncancelled timers (a scan)."""
        return sum(1 for entry in self._heap if entry[3] is not None or not entry[2].cancelled)

    # ------------------------------------------------------------------ rng / metrics
    @property
    def random(self) -> RandomStreams:
        return self._streams

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    # ------------------------------------------------------------------ scheduling
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds; return the timer."""
        if not delay >= 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, callback, args)
        heap = self._heap
        heappush(heap, (time, seq, event, None))
        if seq >= self._compact_at:
            # Drop the cancelled timers, in place (see the module docstring).
            heap[:] = [entry for entry in heap if entry[3] is not None or not entry[2].cancelled]
            heapify(heap)
            self._compact_at = seq + max(_COMPACT_FLOOR, len(heap))
        return event

    def post_at(self, time: float, callback: Callable[..., Any], args: tuple = ()) -> None:
        """Hot-path scheduling: no Event, no validation.

        For engine-internal fire-and-forget work (message delivery, CPU-queue
        completions) whose times are derived from ``now`` plus a non-negative
        cost and whose events are never cancelled.  Anything user-facing or
        cancellable should use :meth:`schedule`.  This is the canonical call
        entry that the hottest sites inline (see the module docstring).
        """
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, callback, args))

    # ------------------------------------------------------------------ running
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the heap drains, ``until`` is reached, or ``max_events`` fire.

        Returns the virtual time at which the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None and not until >= self.now:
            raise SimulationError(f"cannot run until {until!r}, before now={self.now!r}")
        self._running = True
        heap = self._heap
        # The hot loop allocates heavily (heap entries, event args, messages)
        # but almost entirely acyclically, so reference counting reclaims it;
        # the cyclic collector only adds generation-scan pauses.  Suspend it
        # for the duration of the run and restore the caller's setting after.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            executed = 0
            budget = float("inf") if max_events is None else max_events
            horizon = float("inf") if until is None else until
            # Inlined pop->fire loop: one heap traversal per event, cancelled
            # timers discarded as they surface.
            while heap:
                if executed >= budget:
                    break
                entry = heap[0]
                args = entry[3]
                if args is not None:
                    # Call entry: (time, seq, callback, args).
                    time = entry[0]
                    if time > horizon:
                        self.now = until
                        break
                    heappop(heap)
                    self.now = time
                    self._events_processed += 1
                    entry[2](*args)
                    executed += 1
                    continue
                event = entry[2]
                if event.cancelled:
                    heappop(heap)
                    continue
                time = entry[0]
                if time > horizon:
                    self.now = until
                    break
                heappop(heap)
                self.now = time
                self._events_processed += 1
                event.callback(*event.args)
                executed += 1
            if until is not None and self.now < until:
                # Nothing live left (drained, or only cancelled timers behind
                # the max_events stop): the clock runs on to ``until``.
                while heap and heap[0][3] is None and heap[0][2].cancelled:
                    heappop(heap)
                if not heap:
                    self.now = until
            return self.now
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
