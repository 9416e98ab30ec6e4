"""Simulation kernel tests."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import SimClock, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_same_time_fires_in_fifo_order(self, sim):
        fired = []
        for index in range(5):
            sim.schedule(1.0, fired.append, index)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_time_advances_to_event_time(self, sim):
        times = []
        sim.schedule(3.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [3.5]

    def test_schedule_at_absolute_time(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        event_times = []
        sim.schedule_at(4.0, lambda: event_times.append(sim.now))
        sim.run()
        assert event_times == [4.0]

    def test_kwargs_passed_through(self, sim):
        got = {}
        sim.schedule(0.0, lambda **kw: got.update(kw), key="value")
        sim.run()
        assert got == {"key": "value"}

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_callback_can_schedule_more_events(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]

    def test_callback_can_schedule_at_current_time(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, fired.append, "now"))
        sim.run()
        assert fired == ["now"]
        assert sim.now == 1.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(1.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        assert keep is not None


class TestLazyDeletion:
    """Cancel marks the heap entry; removal happens at pop time."""

    def test_cancelled_entries_stay_queued_until_popped(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        for event in events[:4]:
            event.cancel()
        # Accounting views disagree by design: the heap still holds all
        # five entries, but only one of them is pending work.
        assert len(sim._queue) == 5
        assert sim.pending == 1
        sim.run()
        assert len(sim._queue) == 0
        assert sim.pending == 0

    def test_run_step_count_excludes_cancelled(self, sim):
        live = [sim.schedule(1.0, lambda: None) for _ in range(3)]
        sim.schedule(0.5, lambda: None).cancel()
        sim.schedule(2.0, lambda: None).cancel()
        assert live and sim.run() == 3

    def test_step_skips_cancelled_head_and_fires_next(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "dead").cancel()
        sim.schedule(2.0, fired.append, "live")
        assert sim.step() is True
        assert fired == ["live"]
        assert sim.now == 2.0

    def test_cancelled_head_does_not_consume_max_steps(self, sim):
        fired = []
        sim.schedule(0.5, fired.append, "dead").cancel()
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.run(max_steps=2) == 2
        assert fired == ["a", "b"]

    def test_cancel_after_fire_is_harmless(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.run()
        event.cancel()  # too late, but must not corrupt accounting
        assert fired == ["x"]
        assert sim.pending == 0

    def test_time_does_not_advance_to_cancelled_events(self, sim):
        sim.schedule(1.0, lambda: None)
        late = sim.schedule(9.0, lambda: None)
        late.cancel()
        sim.run()
        assert sim.now == 1.0


class TestPendingCounterAndCompaction:
    """pending is an O(1) live counter; mass-cancel compacts the heap."""

    def test_pending_counter_tracks_schedule_cancel_fire(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending == 10
        events[0].cancel()
        events[0].cancel()  # idempotent: no double decrement
        assert sim.pending == 9
        sim.run(until=5.0)
        assert sim.pending == 5

    def test_mass_cancel_compacts_the_heap(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        # More than half the queue was tombstones: the heap was rebuilt
        # (at the trigger point; later cancels may tombstone again).
        assert sim.compactions >= 1
        assert len(sim._queue) <= 100
        assert sim.pending == 50
        assert sim.run() == 50

    def test_small_queues_are_never_compacted(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        assert sim.compactions == 0
        assert sim.pending == 0

    def test_cancel_after_compaction_is_harmless(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        assert sim.compactions >= 1
        events[0].cancel()  # evicted by compaction; must not corrupt counts
        assert sim.pending == 50
        assert sim.run() == 50

    def test_compaction_keeps_fifo_order_of_equal_time_survivors(self, sim):
        fired = []
        events = [
            sim.schedule(1.0, fired.append, index)
            for index in range(Simulator.COMPACT_MIN * 3)
        ]
        survivors = [index for index in range(len(events)) if index % 7 == 3]
        for index, event in enumerate(events):
            if index not in survivors:
                event.cancel()
        assert sim.compactions >= 1
        assert sim.pending == len(survivors)
        # Events scheduled after the rebuild still queue behind the
        # survivors: seq, not heap position, orders equal times.
        late = [sim.schedule(1.0, fired.append, f"late-{n}") for n in range(3)]
        late[1].cancel()
        assert sim.pending == len(survivors) + 2
        assert sim.run() == len(survivors) + 2
        assert fired == survivors + ["late-0", "late-2"]
        assert sim.pending == 0

    def test_repeated_reschedule_stays_bounded(self, sim):
        # The fleet pattern: park a timer, cancel + re-arm it many times.
        event = sim.schedule(1000.0, lambda: None)
        for _ in range(10_000):
            event.cancel()
            event = sim.schedule(1000.0, lambda: None)
        assert sim.pending == 1
        assert len(sim._queue) < Simulator.COMPACT_MIN


class TestRun:
    def test_run_returns_step_count(self, sim):
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        assert sim.run() == 3

    def test_run_until_leaves_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(3.0, fired.append, "out")
        sim.run(until=2.0)
        assert fired == ["in"]
        assert sim.pending == 1

    def test_run_until_includes_boundary_events(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "edge")
        sim.run(until=2.0)
        assert fired == ["edge"]

    def test_run_until_advances_time_even_with_empty_queue(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_for_is_relative(self, sim):
        sim.run(until=5.0)
        fired = []
        sim.schedule(2.0, fired.append, "x")
        sim.run_for(2.0)
        assert fired == ["x"]
        assert sim.now == 7.0

    def test_run_for_negative_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.run_for(-1.0)

    def test_max_steps_bounds_execution(self, sim):
        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        steps = sim.run(max_steps=10)
        assert steps == 10

    def test_not_reentrant(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(0.0, sim.run)
            sim.run()

    def test_step_returns_false_on_empty_queue(self, sim):
        assert sim.step() is False


class TestSimClock:
    def test_tracks_simulator_time(self, sim):
        clock = SimClock(sim)
        assert clock.now() == 0.0
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert clock.now() == 4.0

    def test_simulator_exposes_clock(self, sim):
        assert sim.clock.now() == sim.now


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once() -> list:
            simulator = Simulator()
            trace = []
            for index in range(20):
                simulator.schedule((index * 7) % 5 + 0.1, trace.append, index)
            simulator.run()
            return trace

        assert run_once() == run_once()
