"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from helpers import crash_owned_entries
from repro.cluster.builder import build_cluster
from repro.errors import SimulationError
from repro.sim import engine
from repro.sim.engine import _COMPACT_FLOOR, Event, Simulator


class TestEventHeap:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.post_at(3.0, fired.append, ("c",))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_preserve_insertion_order(self, sim):
        # FIFO on equal times holds across timers and call entries alike.
        fired = []
        sim.schedule(1.0, fired.append, "first")
        sim.post_at(1.0, fired.append, ("second",))
        sim.schedule(1.0, fired.append, "third")
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_cancelled_events_are_skipped(self, sim):
        fired = []
        cancelled = sim.schedule(1.0, fired.append, "cancelled")
        sim.schedule(2.0, fired.append, "kept")
        cancelled.cancel()
        sim.run()
        assert fired == ["kept"]
        assert sim.events_processed == 1

    def test_pending_events_counts_entries_still_due(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.post_at(3.0, print, ())
        assert sim.pending_events == 3
        event.cancel()
        assert sim.pending_events == 2

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self, sim):
        # NaN fails every comparison: accepted, it would fire at now = nan
        # and the clock would then run backwards.
        fired = []
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: fired.append(sim.now))
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]

    @pytest.mark.parametrize("until", [float("nan"), -1.0, 0.5])
    def test_run_until_before_now_rejected(self, sim, until):
        # `time > nan` is always false, so run(until=nan) would never stop;
        # an `until` in the past would set the clock back to it.
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(max_events=1)
        with pytest.raises(SimulationError):
            sim.run(until=until)
        assert sim.now == 1.0 and sim.pending_events == 1

    def test_cancel_is_idempotent_and_keeps_pending_exact(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        event.cancel()
        assert sim.pending_events == 1
        event.cancel()
        assert sim.pending_events == 1

    def test_cancel_after_fire_does_not_corrupt_pending(self, sim):
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(max_events=1)
        assert sim.pending_events == 1
        first.cancel()  # already fired: nothing left to drop
        assert sim.pending_events == 1

    def test_scheduled_event_is_the_timer(self, sim):
        sim.schedule(0.5, lambda: None)
        sim.run()
        relative = sim.schedule(0.25, lambda: None)
        later = sim.schedule(1.5, lambda: None)
        soon = sim.schedule(0.0, lambda: None)
        assert (relative.time, later.time, soon.time) == (0.75, 2.0, 0.5)
        assert isinstance(relative, Event) and not relative.cancelled
        assert sim.pending_events == 3
        later.cancel()
        assert later.cancelled and sim.pending_events == 2
        sim.run()
        relative.cancel()  # already fired: nothing left to drop
        assert sim.pending_events == 0

    def test_run_until_runs_the_clock_past_cancelled_timers(self, sim):
        # Stopped by max_events with only a cancelled timer left, the run
        # still advances to `until`; a live entry left behind holds it back.
        sim.schedule(0.5, lambda: None)
        sim.schedule(1.0, lambda: None).cancel()
        assert sim.run(until=3.0, max_events=1) == 3.0
        sim.schedule(0.5, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=5.0, max_events=1) == 3.5


class TestCompaction:
    """Cancelled timers leave the heap at the next compaction, not when they surface."""

    def test_probe_point_heap_is_near_its_live_size(self):
        # Left to surface, cancelled timers would be 1 684 of 1 711 entries here.
        cluster = build_cluster("pigpaxos", num_nodes=7, num_clients=8, seed=5, relay_groups=2)
        cluster.run(0.2)
        live = cluster.sim.pending_events
        assert len(cluster.sim._heap) <= 2 * live + _COMPACT_FLOOR

    def test_closed_loop_heap_does_not_grow_with_completed_ops(self, monkeypatch):
        # Every request arms a 2 s timeout that its reply cancels; left to
        # surface, a 1 s run would keep one dead timer per completed op.
        lengths = []
        heappop = engine.heappop

        def recording_heappop(heap):
            lengths.append(len(heap))
            return heappop(heap)

        monkeypatch.setattr(engine, "heappop", recording_heappop)
        cluster = build_cluster("paxos", num_nodes=1, num_clients=8, seed=1)
        cluster.run(0.5)
        first_half = max(lengths)
        lengths.clear()
        cluster.sim.run(until=1.0)
        second_half = max(lengths)
        assert second_half <= first_half <= 2 * _COMPACT_FLOOR
        assert cluster.total_completed_requests() > 20 * first_half


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

    def test_events_processed_counts(self, sim):
        for _ in range(3):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_run_to_until_with_empty_queue_advances_clock(self, sim):
        sim.run(until=1.5)
        assert sim.now == 1.5

    def test_zero_delay_runs_at_current_time(self, sim):
        times = []
        sim.schedule(0.25, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
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

    def test_simulator_uses_seeded_streams(self):
        a = Simulator(seed=9).random.stream("net").random()
        b = Simulator(seed=9).random.stream("net").random()
        assert a == b


class TestHeapEntries:
    """Every push site, inlined or not, lays entries out as ``Simulator.post_at`` does."""

    @staticmethod
    def assert_well_formed(heap):
        seqs = set()
        for index, entry in enumerate(heap):
            assert type(entry) is tuple and len(entry) == 4
            time, seq, payload, args = entry
            assert type(time) is float and type(seq) is int
            assert seq not in seqs
            seqs.add(seq)
            if isinstance(payload, Event):
                assert args is None
            else:
                assert callable(payload) and type(args) is tuple
            if index:
                assert heap[(index - 1) // 2] < entry

    def test_entries_keep_their_shape_through_a_crash(self):
        cluster = build_cluster("pigpaxos", num_nodes=7, num_clients=8, seed=5, relay_groups=2)
        sim = cluster.sim
        # Call entries leave the heap within microseconds of virtual time, so
        # the heap is checked after every event of a window around the crash.
        cluster.run(0.19)
        while sim.now < 0.2:
            self.assert_well_formed(sim._heap)
            sim.run(until=0.2, max_events=1)
        victim = cluster.nodes[cluster.leader_id()]
        heap = sim._heap
        lost = {entry[:2] for entry in crash_owned_entries(victim, heap)}
        assert lost  # the leader had queued work to lose
        victim.crash()
        # The purge rebuilt the list the run loop holds, in place.
        assert sim._heap is heap and crash_owned_entries(victim, heap) == []
        self.assert_well_formed(heap)
        # The next schedule() compacts: the rebuild keeps every entry's shape.
        sim._compact_at = mark = sim._seq
        for _ in range(50):
            if sim._compact_at != mark:
                break
            self.assert_well_formed(heap)
            sim.run(until=0.4, max_events=1)
        assert sim._compact_at != mark and sim._heap is heap
        victim.recover()
        # Nothing the victim lost comes back to run after its recovery.
        for _ in range(150):
            self.assert_well_formed(heap)
            assert lost.isdisjoint(entry[:2] for entry in heap)
            sim.run(until=0.4, max_events=1)
        assert cluster.total_completed_requests() > 0
