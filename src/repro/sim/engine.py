"""The discrete-event simulator core.

:class:`Simulator` owns the virtual clock, the event queue, the random
streams and the metrics registry.  Components schedule work with
:meth:`Simulator.schedule` (relative delay) or :meth:`Simulator.schedule_at`
(absolute time) and may cancel it via the returned :class:`~repro.sim.events.Event`
(its ``time``/``cancelled``/``cancel()`` are the whole timer interface).
Fire-and-forget hot paths (the network fabric, the node CPU queue) use
:meth:`Simulator.post_at`, which skips the Event allocation.

The engine is single-threaded and runs events strictly in
``(time, priority, insertion order)`` order, which makes every run with the
same seed bit-for-bit reproducible.  The main loop in :meth:`Simulator.run`
is deliberately inlined -- it pops heap entries directly instead of going
through ``peek_time()`` + ``step()``, which would traverse the heap top
twice per event.  Any change here must keep the pop order identical; the
golden-fingerprint tests (``tests/test_golden_fingerprints.py``) are the
tripwire.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RandomStreams


class Simulator:
    """Single-threaded deterministic discrete-event simulator."""

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._streams = RandomStreams(seed)
        self._metrics = MetricsRegistry()
        self._running = False
        self._events_processed = 0

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful for progress/debugging)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------ rng / metrics
    @property
    def random(self) -> RandomStreams:
        return self._streams

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    # ------------------------------------------------------------------ scheduling
    # schedule / schedule_at return the queued Event itself: it carries
    # ``time`` and ``cancelled`` and its ``cancel()`` keeps
    # ``pending_events`` exact.  Both inline EventQueue.push (the canonical
    # entry layout lives there).
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        time = self._now + delay
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        event = Event(time, priority, seq, callback, args, queue)
        heappush(queue._heap, (time, priority, seq, event, None))
        queue._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, which is in the past (now={self._now!r})"
            )
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        event = Event(time, priority, seq, callback, args, queue)
        heappush(queue._heap, (time, priority, seq, event, None))
        queue._live += 1
        return event

    def post_at(self, time: float, callback: Callable[..., Any], args: tuple = ()) -> None:
        """Hot-path scheduling: no Event, no validation.

        For engine-internal fire-and-forget work (message delivery, CPU-queue
        completions) whose times are derived from ``now`` plus a non-negative
        cost and whose events are never cancelled.  Anything user-facing or
        cancellable should use :meth:`schedule` / :meth:`schedule_at`.  The
        queue push is inlined (see ``EventQueue.push_call``) because this is
        the single most-called scheduling entry point.
        """
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, (time, 0, seq, callback, args))
        queue._live += 1

    # ------------------------------------------------------------------ running
    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:
            raise SimulationError("event queue produced an event in the past")
        self._now = event.time
        self._events_processed += 1
        event.fire()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the virtual time at which the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        queue = self._queue
        heap = queue._heap
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
            # entries discarded as they surface.  `heap` is bound once; the
            # queue clears its list in place, so the binding stays valid even
            # across a mid-run reset().
            while heap:
                if executed >= budget:
                    break
                entry = heap[0]
                args = entry[4]
                if args is not None:
                    # Fire-and-forget call entry: (time, 0, seq, cb, args).
                    time = entry[0]
                    if time > horizon:
                        self._now = until
                        break
                    heappop(heap)
                    queue._live -= 1
                    self._now = time
                    self._events_processed += 1
                    entry[3](*args)
                    executed += 1
                    continue
                event = entry[3]
                if event.cancelled:
                    heappop(heap)
                    continue
                time = entry[0]
                if time > horizon:
                    self._now = until
                    break
                heappop(heap)
                event._queue = None
                queue._live -= 1
                self._now = time
                self._events_processed += 1
                event.callback(*event.args)
                executed += 1
            else:
                queue._live = 0
            if until is not None and self._now < until and queue.peek_time() is None:
                self._now = until
            return self._now
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

    def reset(self, seed: Optional[int] = None) -> None:
        """Clear the queue and clock; optionally reseed the random streams."""
        self._queue.clear()
        self._now = 0.0
        self._events_processed = 0
        if seed is not None:
            self._streams = RandomStreams(seed)
        self._metrics = MetricsRegistry()
