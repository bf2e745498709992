"""Event and event-queue primitives for the discrete-event simulator.

Events are ordered by ``(time, priority, sequence)``.  The sequence number is
a monotonically increasing tiebreaker which guarantees FIFO ordering among
events scheduled for the same instant, making simulations fully deterministic.

Hot-path design (this queue is the single hottest structure in the repo --
every message send, delivery, CPU reservation and timer goes through it):

* :class:`Event` is a plain ``__slots__`` class, not a dataclass.  The heap
  stores ``(time, priority, seq, payload, args)`` tuples so orderings
  resolve via C-level tuple comparison instead of a Python-level generated
  ``__lt__`` (which used to account for ~15% of a scenario run on its own);
  hot fire-and-forget work is stored as a bare callback, skipping the Event
  allocation entirely (see :class:`EventQueue`).
* Cancellation is unified: :meth:`Event.cancel` is the *only* cancel path
  and keeps the queue's live-event count exact.  The engine's ``schedule``
  returns the Event itself as the timer, and ``queue.cancel(event)``
  delegates to it, so both are equivalent (this used to be a bookkeeping
  footgun where a direct ``Event.cancel()`` silently skipped the ``_live``
  decrement).
* Time validation happens once at the engine boundary
  (:meth:`repro.sim.engine.Simulator.schedule` / ``schedule_at``), not per
  push: the queue trusts its callers and stays branch-lean.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A single scheduled callback in the simulation.

    Attributes:
        time: Virtual time (seconds) at which the event fires.
        priority: Lower values fire first among events at the same time.
        seq: Monotonic tiebreaker assigned by the queue.
        callback: Callable invoked when the event fires.
        args: Positional arguments passed to the callback.
        cancelled: When True, the engine skips the event.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        This is the canonical cancel path: it also keeps the owning queue's
        live-event count exact, so ``len(queue)`` / ``pending_events`` never
        drift no matter which cancel entry point callers use.  Idempotent,
        and harmless on events that already fired or were cleared.
        """
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                self._queue = None
                queue._live -= 1

    def fire(self) -> Any:
        """Invoke the event callback (the engine calls this)."""
        return self.callback(*self.args)


class EventQueue:
    """A binary-heap priority queue of scheduled callbacks.

    The heap holds uniform ``(time, priority, seq, payload, args)`` entries
    in two flavours:

    * ``(time, priority, seq, Event, None)`` -- cancellable events created
      by :meth:`push`; cancelled ones are removed lazily when they surface.
    * ``(time, 0, seq, callback, args)`` -- fire-and-forget entries created
      by :meth:`push_call` for the hot paths (message delivery, CPU-queue
      completions) that never cancel, skipping the :class:`Event`
      allocation entirely.

    Entries order correctly under tuple comparison because ``seq`` is
    unique: comparison always resolves before reaching the payload field.
    The flavour is distinguished by ``entry[4] is None`` (cheaper per event
    than a ``len()`` call in the engine's inner loop).

    CANONICAL ENTRY LAYOUT: the call-entry push here is also hand-inlined
    at the three hottest scheduling sites -- ``Simulator.post_at``,
    ``SimNode._send_as``/``SimNode._arrive_for`` (cluster/node.py) and
    ``SimNetwork.send`` (net/network.py) -- and the event push at the
    engine's timer entry points, ``Simulator.schedule``/``schedule_at``.
    Changing the entry shape means updating every one of them; grep for
    "push_call" and "EventQueue.push" to find the list.  The message path's
    args are ``(src, dst, message, size)`` for ``SimNetwork.send``,
    ``(src, message, size)`` for the delivery entry (the destination's
    ``arrive``) and ``(src, message)`` for the handler a node queues behind
    its receive cost (dispatch happens at arrival, so that entry's callback
    is the replica's handler itself); no envelope wraps the message.

    Entries are not immutable: ``SimNode.crash`` (cluster/node.py) replaces
    each of its still-queued handler entries, in place, with one that keeps
    ``(time, 0, seq)`` and calls ``_fire_if_up(handler, src, message)``.
    Only the payload changes, never the sort key, so the heap invariant and
    the pop order hold without a re-heapify.
    """

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at virtual ``time`` and return the event.

        Time validation lives at the engine boundary, not here; the queue
        accepts whatever the engine already vetted.
        """
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, args, self)
        heappush(self._heap, (time, priority, seq, event, None))
        self._live += 1
        return event

    def push_call(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
    ) -> None:
        """Schedule a fire-and-forget callback (priority 0, not cancellable).

        Hand-inlined at the hot sites listed in the class docstring; keep
        them in sync with any change here.
        """
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, 0, seq, callback, args))
        self._live += 1

    def pop(self) -> Optional[Event]:
        """Pop the next non-cancelled event, or None if the queue is drained.

        Fire-and-forget entries are wrapped in a fresh :class:`Event` so
        callers see a uniform interface (this path is only taken by
        ``Simulator.step``; the inlined run loop consumes entries directly).
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if entry[4] is not None:
                self._live -= 1
                return Event(entry[0], 0, entry[2], entry[3], entry[4])
            event = entry[3]
            if event.cancelled:
                continue
            event._queue = None
            self._live -= 1
            return event
        self._live = 0
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without popping it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[4] is None and entry[3].cancelled:
                heappop(heap)
                continue
            return entry[0]
        self._live = 0
        return None

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy removal)."""
        event.cancel()

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            if entry[4] is None:
                entry[3]._queue = None
        self._heap.clear()
        self._live = 0
