"""Property suite: the bucketed ``EventQueue`` against a sorted-list
model under random operation interleavings.

The model (:mod:`tests.simcore.queue_model`) states the queue's contract
in the plainest form: drive both through the same randomized ``push``/
``cancel``/``pop``/``peek``/``clear``/``compact`` sequences and require
event-for-event agreement — same pop order (time, priority, seq), same
``peek_time``, same ``len()``, same live ``iter_entries`` view — at every
step.  The bucket queue's own counter invariants (derived ``len``,
corpse accounting) are checked against an O(n) scan after each step.
"""

from hypothesis import given, settings, strategies as st

from repro.simcore.engine import Simulator
from repro.simcore.events import EventQueue
from tests.simcore.queue_model import ModelQueue


def _scan_check(q: EventQueue) -> None:
    """Assert the derived O(1) length against an O(n) bucket scan."""
    live = 0
    corpses = 0
    for b in q._buckets.values():
        evs = b if type(b) is list else [b]
        for ev in evs:
            if ev[1] is not None:
                live += 1
            else:
                corpses += 1
    assert len(q) == live
    assert q._corpses == corpses >= 0
    tracked, actual = q.live_count_check()
    assert tracked == actual == live


#: op, arg — arg picks times/handles; small time pool forces same-instant
#: collisions (singleton→list bucket promotion) and tie-breaking.
_OPS = st.tuples(
    st.sampled_from(["push", "pushprio", "cancel", "pop", "peek", "clear", "compact"]),
    st.integers(min_value=0, max_value=1 << 16),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=120))
def test_property_queue_agrees_with_model(ops):
    model = ModelQueue()
    q = EventQueue()
    pairs = []  # (model entry, Event) handles, aligned
    t = 0.0
    for op, arg in ops:
        if op in ("push", "pushprio"):
            t += (arg % 5) * 0.25  # % 5 == 0 repeats the instant
            prio = (arg % 7) if op == "pushprio" else 0
            me = model.push(t, priority=prio, label="x")
            ev = q.push(t, lambda: None, priority=prio, label="x")
            assert ev.time == me.time == t
            assert ev.priority == me.priority == prio
            assert ev.seq == me.seq
            pairs.append((me, ev))
        elif op == "cancel" and pairs:
            me, ev = pairs[arg % len(pairs)]
            me.cancel()
            ev.cancel()
            assert ev.cancelled == me.cancelled
        elif op == "pop":
            me = model.pop()
            ev = q.pop()
            if me is None:
                assert ev is None
            else:
                assert ev is not None and not ev.cancelled
                assert (ev.time, ev.priority, ev.seq) == (
                    me.time,
                    me.priority,
                    me.seq,
                )
        elif op == "peek":
            assert q.peek_time() == model.peek_time()
        elif op == "clear":
            model.clear()
            q.clear()
        elif op == "compact":
            model.compact()
            q._compact()
        assert len(q) == len(model)
        _scan_check(q)

    # Cancelled flags agree for every handle, popped and cleared included.
    for me, ev in pairs:
        assert ev.cancelled == me.cancelled
    # Drain both to exhaustion: total order must agree to the end.
    while True:
        me = model.pop()
        ev = q.pop()
        if me is None:
            assert ev is None
            break
        assert (ev.time, ev.priority, ev.seq) == (me.time, me.priority, me.seq)


@settings(max_examples=100, deadline=None)
@given(st.lists(_OPS, max_size=80))
def test_property_iter_entries_agrees_with_model(ops):
    """``iter_entries`` (the scan behind ``live_count_check``) yields
    the live (time, label, seq) multiset of the model."""
    model = ModelQueue()
    q = EventQueue()
    pairs = []
    t = 0.0
    for op, arg in ops:
        if op in ("push", "pushprio"):
            t += (arg % 5) * 0.25
            prio = (arg % 7) if op == "pushprio" else 0
            lbl = f"l{arg % 3}"
            pairs.append(
                (
                    model.push(t, priority=prio, label=lbl),
                    q.push(t, lambda: None, priority=prio, label=lbl),
                )
            )
        elif op == "cancel" and pairs:
            me, ev = pairs[arg % len(pairs)]
            me.cancel()
            ev.cancel()
        elif op == "pop":
            model.pop()
            q.pop()
        elif op == "peek":
            model.peek_time()
            q.peek_time()
        elif op == "clear":
            model.clear()
            q.clear()
        elif op == "compact":
            model.compact()
            q._compact()
    m_view = sorted((tm, ev.label, ev.seq) for tm, ev in model.iter_entries())
    q_view = sorted((tm, ev.label, ev.seq) for tm, ev in q.iter_entries())
    assert q_view == m_view


def test_cancel_after_delivery_is_inert():
    """Cancelling an already-popped event must not corrupt counters
    (the kernel cancels phase events that may have just delivered)."""
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    popped = q.pop()
    assert popped is ev
    ev.cancel()  # delivered, not pending: counters untouched
    assert len(q) == 1
    _scan_check(q)
    ev.cancel()  # double-cancel equally inert
    assert len(q) == 1
    _scan_check(q)


def test_same_instant_append_after_partial_drain_keeps_order():
    """Regression (hypothesis-found): after a sort + partial drain
    leaves a nonzero-priority event at a bucket's tail, a later
    priority-0 push at the same instant outranks that tail and must
    flag the bucket — through every inlined push site (queue.push,
    Simulator.at, Simulator.after)."""

    def sites():
        q = EventQueue()
        yield q, lambda prio, lbl: q.push(0.25, lambda: None, priority=prio, label=lbl)
        sim = Simulator()
        yield sim.queue, lambda prio, lbl: sim.at(0.25, lambda: None, priority=prio, label=lbl)
        sim2 = Simulator()
        yield sim2.queue, lambda prio, lbl: sim2.after(0.25, lambda: None, priority=prio, label=lbl)

    for q, push in sites():
        push(1, "hi")
        push(0, "lo1")
        first = q.pop()  # sorts the bucket, delivers lo1, hi stays as tail
        assert first.label == "lo1"
        push(0, "lo2")  # outranked by the hi tail: must flag, not append blind
        assert q.pop().label == "lo2"
        assert q.pop().label == "hi"
        assert q.pop() is None


def test_in_order_priority_appends_do_not_flag():
    """A priority push that lands in order (p5 after p5, or p5 after a
    lower-priority tail) must not mark the bucket unsorted — barrier
    instants rely on this to avoid one tail sort per delivered event."""
    q = EventQueue()
    q.push(1.0, lambda: None, priority=1, label="w1")
    q.push(1.0, lambda: None, priority=1, label="w2")  # in order: no flag
    q.push(1.0, lambda: None, priority=5, label="r1")  # in order: no flag
    q.push(1.0, lambda: None, priority=5, label="r2")  # in order: no flag
    assert 1.0 not in q._unsorted
    q.push(1.0, lambda: None, priority=3, label="mid")  # outranked tail: flag
    assert 1.0 in q._unsorted
    assert [q.pop().label for _ in range(5)] == ["w1", "w2", "mid", "r1", "r2"]


def test_singleton_bucket_promotion_keeps_order():
    """Second push at an instant promotes the singleton to a list; a
    priority push must still deliver in (priority, seq) order."""
    q = EventQueue()
    order = []
    q.push(1.0, lambda: order.append("p5"), priority=5)
    q.push(1.0, lambda: order.append("p0a"), priority=0)
    q.push(1.0, lambda: order.append("p0b"), priority=0)
    while True:
        ev = q.pop()
        if ev is None:
            break
        ev.fn()
    assert order == ["p0a", "p0b", "p5"]
