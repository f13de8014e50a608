"""Corpse/live counter invariants under adversarial interleavings.

The queue answers ``len()`` from O(1) push/deliver/cancel counters and
schedules bulk compaction from an O(1) ``_corpses`` counter.  Those
counters are mutated by ``Event.cancel`` (with its compaction
threshold), ``EventQueue._compact`` and the run loop of
``Simulator.run``, which counts each delivery as it happens.  This
suite drives random interleavings — including handlers that cancel
every pending event mid-drain and handlers that cancel other pending
events — and asserts after every step, inside handlers included, that
the counters match an O(n) bucket scan.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simcore.engine import Simulator
from repro.simcore.events import EventQueue


def check_counters(q: EventQueue) -> None:
    """Assert the O(1) counters against an O(n) bucket scan.

    The live count is exact at every event boundary.  Mid-drain, the
    bucket being delivered still holds the corpses the loop has stepped
    over (it drops its consumed prefix at the end of the instant), so
    only there may the scan see more corpses than ``_corpses``."""
    tracked, actual = q.live_count_check()
    assert len(q) == tracked == actual
    corpses = 0
    for b in q._buckets.values():
        for ev in b if type(b) is list else (b,):
            if ev[4] is None:
                corpses += 1
    if q._draining:
        assert 0 <= q._corpses <= corpses
    else:
        assert q._corpses == corpses


# ----------------------------------------------------------------------
# Interleavings between runs
# ----------------------------------------------------------------------
#: op, arg — arg indexes into the currently-held handles where relevant.
_OPS = st.tuples(
    st.sampled_from(["push", "cancel", "deliver", "until", "compact"]),
    st.integers(min_value=0, max_value=1 << 16),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=120))
def test_property_counters_match_scan_under_random_ops(ops):
    sim = Simulator()
    q = sim.queue
    handles = []
    t = 0.0
    for op, arg in ops:
        if op == "push":
            t = max(t, sim.now) + (arg % 7) * 0.125  # repeats tie-break
            handles.append(q.push(t, lambda: None))
        elif op == "cancel" and handles:
            # Double-cancels and cancels of delivered events included.
            handles[arg % len(handles)].cancel()
        elif op == "deliver":
            sim.run(stop_when=lambda: True)
        elif op == "until":
            sim.run(until=sim.now + (arg % 5) * 0.125)
        elif op == "compact":
            q._compact()
        check_counters(q)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=65, max_value=300),
    st.integers(min_value=0, max_value=64),
)
def test_property_compaction_threshold_never_drifts(n_cancel, n_keep):
    # Push enough events to trip the corpses>64, corpses>live threshold
    # from inside Event.cancel, in every order hypothesis picks.
    q = EventQueue()
    doomed = [q.push(float(i), lambda: None) for i in range(n_cancel)]
    for i in range(n_keep):
        q.push(float(n_cancel + i), lambda: None)
    for ev in doomed:
        ev.cancel()
        check_counters(q)
    assert len(q) == n_keep


# ----------------------------------------------------------------------
# Interleavings inside a run
# ----------------------------------------------------------------------
def _storm(sim, n_events, cancel_all_at, cancel_stride):
    """Schedule a burst where handler ``cancel_all_at`` cancels every
    pending event mid-drain (its own instant's tail included) and every
    ``cancel_stride``-th handler cancels the next pending event
    (possibly one at the same instant)."""
    pending = []

    def handler(i):
        if i == cancel_all_at:
            for ev in pending:
                ev.cancel()
            check_counters(sim.queue)
            return
        if cancel_stride and i % cancel_stride == 0:
            for ev in pending:
                if ev.active and ev._queue is not None:
                    ev.cancel()
                    break
        check_counters(sim.queue)

    for i in range(n_events):
        # Duplicate timestamps exercise same-instant buckets.
        pending.append(
            sim.at((i // 4) * 0.001, lambda i=i: handler(i), priority=i % 3)
        )
    return pending


def _predicate(with_predicate):
    """A never-true ``stop_when`` predicate, or none."""
    return (lambda: False) if with_predicate else None


@pytest.mark.parametrize("with_predicate", [True, False])
@pytest.mark.parametrize("cancel_all_at", [-1, 0, 17, 39])
@pytest.mark.parametrize("cancel_stride", [0, 1, 3])
def test_engine_drain_counters(with_predicate, cancel_all_at, cancel_stride):
    sim = Simulator()
    _storm(sim, 40, cancel_all_at, cancel_stride)
    sim.run(stop_when=_predicate(with_predicate))
    check_counters(sim.queue)
    assert len(sim.queue) == 0


@pytest.mark.parametrize("with_predicate", [True, False])
def test_engine_horizon_counters(with_predicate):
    # A horizon splits the burst across two runs, with or without a
    # stop_when predicate.
    sim = Simulator()
    pending = _storm(sim, 40, cancel_all_at=-1, cancel_stride=2)
    sim.run(until=0.004, stop_when=_predicate(with_predicate))
    check_counters(sim.queue)
    sim.run(until=1.0, stop_when=_predicate(with_predicate))
    check_counters(sim.queue)
    assert len(sim.queue) == 0
    assert all(not ev.active or ev._queue is None for ev in pending)


def test_cancel_currently_firing_event_is_counter_neutral():
    sim = Simulator()
    holder = []

    def fire():
        holder[0].cancel()  # self-cancel mid-delivery: entry already popped
        check_counters(sim.queue)

    holder.append(sim.at(0.0, fire))
    sim.run()
    check_counters(sim.queue)


@pytest.mark.parametrize("with_predicate", [True, False])
def test_mass_cancel_inside_handler_defers_compaction(with_predicate):
    # One handler cancels 100 future events in a burst, past the
    # corpses>64 compaction threshold.  Compaction is deferred while the
    # run drains (removal would desynchronize the live bucket
    # iteration): the drain skips the corpses, the counters stay exact,
    # and a compaction after the run finds nothing left to drop.
    sim = Simulator()
    fired = []
    doomed = [
        sim.at(1.0 + i * 0.001, lambda i=i: fired.append(i))
        for i in range(100)
    ]
    survivor = sim.at(2.0, lambda: fired.append("survivor"))

    def massacre():
        for ev in doomed:
            ev.cancel()
        check_counters(sim.queue)
        assert sim.queue._corpses == len(doomed)

    sim.at(0.5, massacre)
    sim.run(stop_when=_predicate(with_predicate))
    assert fired == ["survivor"]
    assert survivor._queue is None
    check_counters(sim.queue)
    assert sim.queue._corpses == 0
