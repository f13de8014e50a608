"""Unit tests for the event queue."""

import pytest
from hypothesis import given, strategies as st

from repro.simcore.events import EventQueue


def test_push_pop_orders_by_time():
    q = EventQueue()
    fired = []
    q.push(2.0, lambda: fired.append("b"))
    q.push(1.0, lambda: fired.append("a"))
    q.push(3.0, lambda: fired.append("c"))
    while (ev := q.pop()) is not None:
        ev.fn()
    assert fired == ["a", "b", "c"]


def test_priority_breaks_time_ties():
    q = EventQueue()
    order = []
    q.push(1.0, lambda: order.append("low"), priority=5)
    q.push(1.0, lambda: order.append("high"), priority=0)
    q.push(1.0, lambda: order.append("mid"), priority=2)
    while (ev := q.pop()) is not None:
        ev.fn()
    assert order == ["high", "mid", "low"]


def test_insertion_order_breaks_full_ties():
    q = EventQueue()
    order = []
    for i in range(10):
        q.push(1.0, lambda i=i: order.append(i), priority=0)
    while (ev := q.pop()) is not None:
        ev.fn()
    assert order == list(range(10))


def test_cancelled_events_are_skipped():
    q = EventQueue()
    ev1 = q.push(1.0, lambda: None, label="dropme")
    q.push(2.0, lambda: None, label="keep")
    ev1.cancel()
    assert not ev1.active
    got = q.pop()
    assert got is not None and got.label == "keep"


def test_peek_time_skips_cancelled():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(5.0, lambda: None)
    assert q.peek_time() == 1.0
    ev.cancel()
    assert q.peek_time() == 5.0


def test_peek_time_empty_returns_none():
    assert EventQueue().peek_time() is None


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


def test_len_excludes_lazily_cancelled_events():
    """Regression: len() used to report heap entries, counting cancelled
    corpses awaiting lazy removal.  It must track *pending* events."""
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    assert len(q) == 1
    ev.cancel()
    assert len(q) == 0  # cancelled immediately; lazy removal is internal
    assert q.pop() is None
    assert len(q) == 0


def test_len_tracks_push_cancel_pop_mix():
    q = EventQueue()
    handles = [q.push(float(i), lambda: None) for i in range(5)]
    assert len(q) == 5
    handles[0].cancel()
    handles[3].cancel()
    handles[3].cancel()  # double-cancel must not double-decrement
    assert len(q) == 3
    assert q.pop() is handles[1]
    assert len(q) == 2
    tracked, actual = q.live_count_check()
    assert tracked == actual == 2


def test_clear():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.clear()
    assert q.pop() is None
    assert len(q) == 0


def test_clear_marks_held_handles_cancelled():
    """Regression: clear() used to drop events without flagging them, so
    held handles kept reporting active for events that can never fire."""
    q = EventQueue()
    ev1 = q.push(1.0, lambda: None)
    ev2 = q.push(2.0, lambda: None)
    q.clear()
    assert ev1.cancelled and not ev1.active
    assert ev2.cancelled and not ev2.active
    # A cleared handle can be cancel()ed again without corrupting the count.
    ev1.cancel()
    assert len(q) == 0
    tracked, actual = q.live_count_check()
    assert tracked == actual == 0


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_property_pop_order_is_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while (ev := q.pop()) is not None:
        popped.append(ev.time)
    assert popped == sorted(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.integers(0, 5)),
        min_size=1,
        max_size=100,
    ),
    st.sets(st.integers(0, 99)),
)
def test_property_cancellation_removes_exactly_the_cancelled(entries, cancel_idx):
    q = EventQueue()
    handles = [q.push(t, lambda: None, priority=p) for t, p in entries]
    for i in cancel_idx:
        if i < len(handles):
            handles[i].cancel()
    surviving = sum(1 for h in handles if not h.cancelled)
    popped = 0
    while q.pop() is not None:
        popped += 1
    assert popped == surviving


# ----------------------------------------------------------------------
# Interleaved push/cancel/pop against a reference model
# ----------------------------------------------------------------------
#: Times drawn from a tiny pool so timestamp ties (the FIFO-critical
#: case) occur constantly; priorities likewise.
_interleavings = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5]),
            st.sampled_from([0, 0, 1, 2]),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 150)),
        st.tuples(st.just("pop")),
    ),
    min_size=1,
    max_size=150,
)


@given(_interleavings)
def test_property_interleaved_ops_match_reference_model(ops):
    """Arbitrary push/cancel/pop interleavings: the queue must behave
    exactly like a sorted list keyed by (time, priority, arrival index)
    with cancelled entries dropped — i.e. equal-timestamp events keep
    stable FIFO order and a cancelled event is never delivered."""
    q = EventQueue()
    handles = []  # real Event handles, in push order
    model = []  # [(time, priority, arrival), ...] still pending
    cancelled = set()  # arrival indices cancelled

    for op in ops:
        if op[0] == "push":
            _, t, prio = op
            arrival = len(handles)
            handles.append(q.push(t, lambda: None, priority=prio))
            model.append((t, prio, arrival))
        elif op[0] == "cancel":
            _, i = op
            if i < len(handles):
                handles[i].cancel()
                cancelled.add(i)
        else:  # pop
            live = sorted(e for e in model if e[2] not in cancelled)
            got = q.pop()
            if not live:
                assert got is None
                model.clear()
                continue
            expect = live[0]
            assert got is not None and not got.cancelled
            assert (got.time, got.priority) == (expect[0], expect[1])
            assert handles[expect[2]] is got  # FIFO among full ties
            model.remove(expect)
        # The live count must track the model after every operation.
        assert len(q) == sum(1 for e in model if e[2] not in cancelled)

    # Drain: the remainder must come out in model order, no cancelled
    # event ever surfacing.
    rest = sorted(e for e in model if e[2] not in cancelled)
    while (ev := q.pop()) is not None:
        expect = rest.pop(0)
        assert not ev.cancelled
        assert handles[expect[2]] is ev
    assert not rest


def test_mass_cancellation_compacts_heap():
    """Cancelling most of a large queue rebuilds the buckets and the
    timestamp heap without the corpses; survivors still pop in exact
    (time, priority, seq) order."""
    q = EventQueue()
    handles = [q.push(float(i), lambda: None) for i in range(500)]
    for i, h in enumerate(handles):
        if i % 5:  # cancel 80%
            h.cancel()
    assert len(q) == 100
    # Bulk compaction kicked in: no longer ~400 corpses on board.
    assert len(q._buckets) < 200 and len(q._times) < 200
    out = []
    while (ev := q.pop()) is not None:
        out.append(ev.time)
    assert out == [float(i) for i in range(0, 500, 5)]
    assert len(q) == 0


def test_compaction_keeps_live_count_exact():
    """Interleaved push/cancel churn across the compaction threshold
    never desynchronizes the O(1) live counter from the buckets."""
    q = EventQueue()
    handles = []
    for round_ in range(30):
        handles.extend(q.push(float(round_) + i * 1e-3, lambda: None) for i in range(10))
        for h in handles[::3]:
            h.cancel()
        tracked, actual = q.live_count_check()
        assert tracked == actual == len(q)
    while q.pop() is not None:
        pass
    assert len(q) == 0 and q.live_count_check() == (0, 0)
