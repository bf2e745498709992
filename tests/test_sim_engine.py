"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, fired.append, ("b",))
        queue.push(1.0, fired.append, ("a",))
        queue.push(3.0, fired.append, ("c",))
        order = []
        while True:
            event = queue.pop()
            if event is None:
                break
            order.append(event.time)
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_events_preserve_insertion_order(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(1.0, lambda: None)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_priority_breaks_ties_before_sequence(self):
        queue = EventQueue()
        low = queue.push(1.0, lambda: None, priority=5)
        high = queue.push(1.0, lambda: None, priority=0)
        assert queue.pop() is high
        assert queue.pop() is low

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        cancelled = queue.push(1.0, lambda: None)
        kept = queue.push(2.0, lambda: None)
        queue.cancel(cancelled)
        assert queue.pop() is kept
        assert queue.pop() is None

    def test_len_tracks_live_events(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        queue.cancel(event)
        assert len(queue) == 1

    def test_negative_time_validated_at_engine_boundary(self):
        # The queue itself is branch-lean and trusts its callers; negative
        # times are rejected once, at the Simulator scheduling boundary.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(-1.0, lambda: None)

    def test_direct_event_cancel_keeps_len_exact(self):
        # Regression: Event.cancel() used to skip the queue's live-count
        # decrement, so len(queue) drifted unless queue.cancel() was used.
        # All three cancel paths now share one implementation.
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1
        event.cancel()  # idempotent
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_len(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is first
        assert len(queue) == 1
        # Cancelling an already-popped event must not double-decrement.
        popped.cancel()
        assert len(queue) == 1

    def test_timer_handle_cancel_keeps_len_exact(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        handle.cancel()
        assert sim.pending_events == 1
        handle.cancel()
        assert sim.pending_events == 1

    def test_scheduled_event_is_the_timer(self):
        sim = Simulator()
        sim.schedule(0.5, lambda: None)
        sim.run()
        relative = sim.schedule(0.25, lambda: None)
        absolute = sim.schedule_at(2.0, lambda: None)
        soon = sim.call_soon(lambda: None)
        assert (relative.time, absolute.time, soon.time) == (0.75, 2.0, 0.5)
        assert isinstance(relative, Event) and not relative.cancelled
        assert sim.pending_events == 3
        absolute.cancel()
        assert absolute.cancelled and sim.pending_events == 2
        absolute.cancel()  # idempotent
        assert sim.pending_events == 2
        sim.run()
        relative.cancel()  # already fired: nothing left to decrement
        assert sim.pending_events == 0

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        queue.cancel(first)
        assert queue.peek_time() == 5.0

    def test_clear_empties_queue(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.clear()
        assert queue.pop() is None
        assert len(queue) == 0


class TestSimulator:
    def test_schedule_and_run_advances_clock(self, sim):
        fired = []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.5]
        assert sim.now == 0.5

    def test_run_until_stops_before_future_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "late")
        end = sim.run(until=0.5)
        assert fired == []
        assert end == 0.5
        sim.run(until=2.0)
        assert fired == ["late"]

    def test_events_fire_in_order_even_when_scheduled_out_of_order(self, sim):
        fired = []
        sim.schedule(0.3, fired.append, 3)
        sim.schedule(0.1, fired.append, 1)
        sim.schedule(0.2, fired.append, 2)
        sim.run()
        assert fired == [1, 2, 3]

    def test_nested_scheduling_from_callbacks(self, sim):
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(0.1, lambda: fired.append("inner"))

        sim.schedule(0.1, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == pytest.approx(0.2)

    def test_cancel_prevents_execution(self, sim):
        fired = []
        handle = sim.schedule(0.1, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_schedule_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_the_past_rejected(self, sim):
        sim.schedule(0.2, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.1, lambda: None)

    def test_max_events_limits_execution(self, sim):
        fired = []
        for index in range(5):
            sim.schedule(0.1 * (index + 1), fired.append, index)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_run_is_not_reentrant(self, sim):
        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(0.1, reenter)
        sim.run()

    def test_reset_clears_pending_events_and_clock(self, sim):
        sim.schedule(0.5, lambda: None)
        sim.run()
        sim.reset(seed=7)
        assert sim.now == 0.0
        assert sim.pending_events == 0
        assert sim.events_processed == 0

    def test_events_processed_counts(self, sim):
        for _ in range(3):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_mid_run_reset_keeps_bookkeeping_exact(self, sim):
        # Regression for the deferred-counter experiment: a callback may
        # reset() the simulator mid-run; the queue length and event counter
        # must reflect post-reset reality, not pre-reset accumulation.
        fired = []

        def resetter():
            sim.reset()
            sim.schedule(0.1, fired.append, "a")
            sim.schedule(0.2, fired.append, "b")

        sim.schedule(0.1, resetter)
        sim.run(max_events=2)
        assert fired == ["a"]
        assert sim.pending_events == 1
        assert sim.events_processed == 1  # reset zeroed the pre-reset count

    def test_run_to_until_with_empty_queue_advances_clock(self, sim):
        sim.run(until=1.5)
        assert sim.now == 1.5

    def test_call_soon_runs_at_current_time(self, sim):
        times = []
        sim.schedule(0.25, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [0.25]


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        from repro.sim.rng import RandomStreams

        a = RandomStreams(1).stream("x")
        b = RandomStreams(1).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        from repro.sim.rng import RandomStreams

        streams = RandomStreams(1)
        x = streams.stream("x")
        y = streams.stream("y")
        assert [x.random() for _ in range(3)] != [y.random() for _ in range(3)]

    def test_stream_is_cached(self):
        from repro.sim.rng import RandomStreams

        streams = RandomStreams(3)
        assert streams.stream("a") is streams.stream("a")

    def test_fork_changes_master_seed(self):
        from repro.sim.rng import RandomStreams

        parent = RandomStreams(5)
        child = parent.fork("worker")
        assert child.master_seed != parent.master_seed

    def test_simulator_uses_seeded_streams(self):
        a = Simulator(seed=9).random.stream("net").random()
        b = Simulator(seed=9).random.stream("net").random()
        assert a == b
