"""Unit tests for the simulation engine."""

import pytest

from repro.simcore.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_after_schedules_relative():
    sim = Simulator()
    fired = []
    sim.after(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]
    assert sim.now == 1.5


def test_at_schedules_absolute():
    sim = Simulator()
    fired = []
    sim.at(2.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.0]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.after(1.0, lambda: None)
    sim.run()
    # NaN compares false against everything: a `time < now` guard
    # would let it in, and the run would move the clock nan -> 1.0.
    for time in (0.5, float("nan")):
        with pytest.raises(SimulationError):
            sim.at(time, lambda: None)
    assert len(sim.queue) == 0


def test_negative_delay_raises():
    sim = Simulator()
    for delay in (-1.0, float("nan")):
        with pytest.raises(SimulationError):
            sim.after(delay, lambda: None)
    assert len(sim.queue) == 0


def test_run_until_stops_clock_at_horizon():
    sim = Simulator()
    fired = []
    sim.after(1.0, lambda: fired.append(1))
    sim.after(10.0, lambda: fired.append(2))
    end = sim.run(until=5.0)
    assert fired == [1]
    assert end == 5.0
    # the late event survives
    end = sim.run()
    assert fired == [1, 2]
    assert end == 10.0


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    assert sim.run(until=3.0) == 3.0


def test_stop_when_predicate():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.after(float(i + 1), lambda i=i: fired.append(i))
    sim.run(stop_when=lambda: len(fired) >= 3)
    assert fired == [0, 1, 2]


def test_stop_requested_from_event():
    sim = Simulator()
    fired = []
    sim.after(1.0, lambda: (fired.append(1), sim.stop()))
    sim.after(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]


def test_event_exactly_at_horizon_fires():
    """An event at precisely t == until is *inside* the horizon: only
    events strictly beyond it stay queued."""
    sim = Simulator()
    fired = []
    sim.at(5.0, lambda: fired.append("edge"))
    sim.at(5.0 + 1e-9, lambda: fired.append("beyond"))
    end = sim.run(until=5.0)
    assert fired == ["edge"]
    assert end == 5.0
    assert len(sim.queue) == 1  # the beyond-horizon event survives


def test_stop_when_firing_on_final_event_before_horizon_clamp():
    """stop_when triggered by the last in-horizon event: with work still
    queued the clock stays at the stopping event's time; only when that
    event drained the queue does the horizon clamp advance the clock."""
    sim = Simulator()
    fired = []
    sim.at(2.0, lambda: fired.append(1))
    sim.at(20.0, lambda: fired.append(2))  # beyond the horizon, pending
    end = sim.run(until=10.0, stop_when=lambda: len(fired) >= 1)
    assert fired == [1]
    assert end == 2.0  # not clamped: the queue is not drained
    assert sim.now == 2.0


def test_empty_queue_after_final_event_still_clamps_to_horizon():
    """The documented clamp: a drained queue advances the clock to the
    horizon, even when stop_when fired on that final event."""
    sim = Simulator()
    fired = []
    sim.at(2.0, lambda: fired.append(1))
    end = sim.run(until=10.0, stop_when=lambda: len(fired) >= 1)
    assert fired == [1]
    assert end == 10.0


def test_stop_from_inside_callback_with_horizon():
    """stop() requested from inside an event callback halts the loop
    after that event even when later events sit inside the horizon."""
    sim = Simulator()
    fired = []
    sim.at(1.0, lambda: (fired.append(1), sim.stop()))
    sim.at(2.0, lambda: fired.append(2))
    end = sim.run(until=5.0)
    assert fired == [1]
    assert end == 1.0
    # the stopped run left the pending event intact; a fresh run resumes
    end = sim.run(until=5.0)
    assert fired == [1, 2]
    assert end == 5.0


def test_stop_from_callback_skips_same_instant_events():
    """stop() is honoured between events even at an identical timestamp
    (the event being processed completes, nothing else fires)."""
    sim = Simulator()
    fired = []
    sim.at(1.0, lambda: (fired.append("a"), sim.stop()), priority=0)
    sim.at(1.0, lambda: fired.append("b"), priority=1)
    sim.run()
    assert fired == ["a"]
    assert len(sim.queue) == 1


def test_events_can_schedule_events():
    sim = Simulator()
    fired = []

    def cascade(n):
        fired.append(n)
        if n < 5:
            sim.after(1.0, lambda: cascade(n + 1))

    sim.after(0.0, lambda: cascade(0))
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_livelock_guard():
    sim = Simulator(max_events=100)

    def loop():
        sim.after(0.0, loop)

    sim.after(0.0, loop)
    with pytest.raises(SimulationError, match="livelock"):
        sim.run()


def test_not_reentrant():
    sim = Simulator()
    err = {}

    def inner():
        try:
            sim.run()
        except SimulationError as exc:
            err["e"] = exc

    sim.after(1.0, inner)
    sim.run()
    assert "e" in err


def test_handler_error_leaves_run_resumable():
    """A handler that raises mid-instant propagates out of run(); the
    consumed prefix is gone, the rest of the instant stays queued, the
    counters are exact, and a second run() delivers the remainder."""
    sim = Simulator()
    fired = []

    def boom():
        fired.append("boom")
        raise ValueError("handler failed")

    sim.at(1.0, lambda: fired.append("a"))
    sim.at(1.0, boom)
    sim.at(1.0, lambda: fired.append("c"))
    sim.at(2.0, lambda: fired.append("d"))
    with pytest.raises(ValueError, match="handler failed"):
        sim.run()
    assert fired == ["a", "boom"]
    assert sim.events_processed == 2
    assert len(sim.queue) == 2
    assert sim.queue.live_count_check() == (2, 2)
    sim.run()
    assert fired == ["a", "boom", "c", "d"]
    assert sim.events_processed == 4
    assert len(sim.queue) == 0


def test_queued_event_before_the_clock_raises():
    """The run loop refuses an instant earlier than the clock (only
    reachable by moving ``now`` by hand) and leaves it queued."""
    sim = Simulator()
    sim.at(1.0, lambda: None)
    sim.now = 2.0
    with pytest.raises(SimulationError, match="in the past"):
        sim.run()
    assert len(sim.queue) == 1


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.after(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_defer_runs_after_callback_before_stop_when():
    """Deferred work runs at the same instant, after the callback that
    queued it and before the stop predicate is evaluated."""
    sim = Simulator()
    log = []

    def cb():
        sim.defer(lambda: log.append("deferred"))
        log.append("callback")

    sim.after(1.0, cb)
    sim.after(2.0, lambda: log.append("late"))
    sim.run(stop_when=lambda: "deferred" in log)
    # The run stopped at t=1.0: the deferred fn ran before stop_when,
    # and the t=2.0 event never fired.
    assert log == ["callback", "deferred"]
    assert sim.now == 1.0


def test_defer_nested_drains_same_instant():
    """A deferred fn may defer further work; everything drains before
    the clock moves (and before the next event's callback)."""
    sim = Simulator()
    log = []

    def cb():
        sim.defer(lambda: (log.append("d1"), sim.defer(lambda: log.append("d2"))))

    sim.after(1.0, cb)
    sim.after(1.0, lambda: log.append("next-event"))
    sim.run()
    assert log == ["d1", "d2", "next-event"]


def test_defer_drained_in_horizon_and_oracle_runs():
    """Runs with a horizon and runs with an oracle installed drain
    deferred work like any other run."""

    class Oracle:
        def __init__(self):
            self.seen = []

        def on_event(self, ev):
            self.seen.append(ev.label)

    sim = Simulator()
    log = []
    sim.after(1.0, lambda: sim.defer(lambda: log.append("a")))
    sim.run(until=10.0)
    assert log == ["a"]
    sim.oracle = Oracle()
    sim.after(1.0, lambda: sim.defer(lambda: log.append("b")), label="b")
    sim.run()
    assert log == ["a", "b"]
    assert sim.oracle.seen == ["b"]


def test_storm_chain_deterministic_event_count():
    from benchmarks.bench_simulator_throughput import event_storm_chain

    assert event_storm_chain(500) == 500
    assert event_storm_chain(500) == 500


def test_storm_deep_deterministic_event_count():
    from benchmarks.bench_simulator_throughput import event_storm_deep

    # chains * (n // chains) events, independent of scheduling noise
    assert event_storm_deep(1000, chains=16) == 16 * (1000 // 16)


# ----------------------------------------------------------------------
# Batched same-instant delivery
# ----------------------------------------------------------------------
def test_batched_delivery_preserves_priority_order():
    sim = Simulator()
    order = []
    sim.at(1.0, lambda: order.append("p5"), priority=5)
    sim.at(1.0, lambda: order.append("p0"), priority=0)
    sim.at(1.0, lambda: order.append("p2"), priority=2)
    sim.at(2.0, lambda: order.append("later"))
    sim.run()
    assert order == ["p0", "p2", "p5", "later"]


def test_batched_delivery_sees_events_scheduled_at_same_instant():
    # A handler scheduling more work at the current instant must have it
    # delivered inside the same batch, in priority order.
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.at(1.0, lambda: order.append("injected"), priority=9)

    sim.at(1.0, first, priority=0)
    sim.at(1.0, lambda: order.append("second"), priority=1)
    sim.run()
    assert order == ["first", "second", "injected"]


def test_batched_delivery_skips_events_cancelled_within_batch():
    sim = Simulator()
    order = []
    victim = sim.at(1.0, lambda: order.append("victim"), priority=5)
    sim.at(1.0, lambda: victim.cancel(), priority=0)
    sim.at(1.0, lambda: order.append("kept"), priority=7)
    sim.run()
    assert order == ["kept"]


def test_stop_inside_batch_halts_before_next_event():
    sim = Simulator()
    order = []
    sim.at(1.0, lambda: (order.append("a"), sim.stop()), priority=0)
    sim.at(1.0, lambda: order.append("b"), priority=1)
    sim.run()
    assert order == ["a"]
    assert len(sim.queue) == 1  # "b" still pending


def test_stop_when_inside_batch_halts_before_next_event():
    sim = Simulator()
    order = []
    sim.at(1.0, lambda: order.append("a"), priority=0)
    sim.at(1.0, lambda: order.append("b"), priority=1)
    sim.run(stop_when=lambda: bool(order))
    assert order == ["a"]


def test_batched_loop_enforces_event_limit():
    sim = Simulator(max_events=10)

    def rearm():
        sim.at(sim.now, rearm)

    sim.at(0.0, rearm)
    with pytest.raises(SimulationError, match="event limit"):
        sim.run()


def test_cur_event_prio_visible_during_delivery():
    # Every delivery stores the event's priority, with or without a
    # horizon; outside a run it reads None.
    for until in (None, 2.0):
        sim = Simulator()
        seen = []
        sim.at(1.0, lambda: seen.append(sim.cur_event_prio), priority=4)
        sim.at(1.0, lambda: seen.append(sim.cur_event_prio), priority=7)
        sim.at(1.5, lambda: seen.append(sim.cur_event_prio), priority=-2)
        sim.run(until=until)
        assert seen == [4, 7, -2]
        assert sim.cur_event_prio is None
