"""Property suite: the bucketed ``EventQueue``, drained by
``Simulator.run``, against a sorted-list model under random operation
interleavings.

The model (:mod:`tests.simcore.queue_model`) states the queue's contract
in the plainest form: drive both through the same randomized ``push``/
``cancel``/``compact`` sequences, deliver through the engine (one event
at a time, up to a horizon, or from inside handlers that push and cancel
at the instant being drained) and require event-for-event agreement —
same delivery order (time, priority, seq), same ``len()``, same live
``iter_entries`` view — at every step.  The bucket queue's own counter
invariants (derived ``len``, corpse accounting) are checked against an
O(n) scan after each step.
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
    st.sampled_from(
        ["push", "pushprio", "cancel", "deliver", "until", "compact"]
    ),
    st.integers(min_value=0, max_value=1 << 16),
)


class _Harness:
    """An engine and a model driven in lockstep; every engine delivery
    pops the model and records the pair."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.model = ModelQueue()
        self.pairs = []  # (model entry, Event) handles, aligned
        self.delivered = []  # (model entry, Event), in delivery order
        self.t = 0.0

    def push(self, step: float, prio: int, label: str = "x") -> None:
        self.t = max(self.t, self.sim.now) + step  # % 0 repeats the instant
        idx = len(self.pairs)
        me = self.model.push(self.t, priority=prio, label=label)
        ev = self.sim.queue.push(
            self.t, lambda: self.fire(idx), priority=prio, label=label
        )
        assert ev.time == me.time == self.t
        assert ev.priority == me.priority == prio
        assert ev.seq == me.seq
        self.pairs.append((me, ev))

    def fire(self, idx: int) -> None:
        me, ev = self.pairs[idx]
        assert self.model.pop() is me  # the model's next event, exactly
        assert self.sim.now == me.time
        self.delivered.append((me, ev))

    def cancel(self, arg: int) -> None:
        me, ev = self.pairs[arg % len(self.pairs)]
        me.cancel()
        ev.cancel()
        assert ev.cancelled == me.cancelled

    def apply(self, op: str, arg: int) -> None:
        sim = self.sim
        if op in ("push", "pushprio"):
            prio = (arg % 7) if op == "pushprio" else 0
            self.push((arg % 5) * 0.25, prio, label=f"l{arg % 3}")
        elif op == "cancel" and self.pairs:
            self.cancel(arg)
        elif op == "deliver":
            n = len(self.delivered) + (1 if len(self.model) else 0)
            sim.run(stop_when=lambda: True)
            assert len(self.delivered) == n
        elif op == "until":
            horizon = sim.now + (arg % 9) * 0.25
            sim.run(until=horizon)
            # Everything at or before the horizon fired; the clock sits
            # at the horizon and nothing beyond it moved.
            assert all(tm > horizon for tm, _ev in self.model.iter_entries())
            assert sim.now == horizon
        elif op == "compact":
            self.model.compact()
            sim.queue._compact()


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=120))
def test_property_queue_agrees_with_model(ops):
    h = _Harness()
    q = h.sim.queue
    for op, arg in ops:
        h.apply(op, arg)
        assert len(q) == len(h.model)
        _scan_check(q)

    # Cancelled flags agree for every handle, delivered ones included.
    for me, ev in h.pairs:
        assert ev.cancelled == me.cancelled
    # Drain to exhaustion: every remaining event fires in model order.
    h.sim.run()
    assert h.model.pop() is None
    assert len(q) == 0
    _scan_check(q)


#: Per-event handler action: nothing, a push at the current instant
#: (any priority, so it may outrank the bucket's undelivered tail), a
#: push later on, or a cancel of any handle (pending, delivered or the
#: event now firing).
_ACTIONS = st.tuples(
    st.sampled_from(["none", "now", "later", "cancel"]),
    st.integers(min_value=0, max_value=1 << 16),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.25, 0.25, 0.5]), st.integers(0, 3)),
        min_size=1,
        max_size=40,
    ),
    st.lists(_ACTIONS, min_size=1, max_size=16),
    st.sampled_from([None, 0.25]),
)
def test_property_handler_actions_agree_with_model(pushes, actions, until):
    """Handlers push and cancel while their own instant drains: the
    engine still delivers in the model's order, with ``len()`` exact at
    every event boundary."""
    h = _Harness()
    q = h.sim.queue
    budget = [60]  # bounds push cascades
    fire = h.fire

    def act(idx: int) -> None:
        fire(idx)
        kind, arg = actions[idx % len(actions)]
        if kind in ("now", "later") and budget[0]:
            budget[0] -= 1
            step = 0.0 if kind == "now" else 0.25 * (1 + arg % 2)
            h.t = h.sim.now
            h.push(step, arg % 4)
        elif kind == "cancel":
            h.cancel(arg)
        assert len(q) == len(h.model)
        tracked, actual = q.live_count_check()
        assert tracked == actual == len(h.model)

    h.fire = act
    for step, prio in pushes:
        h.push(step, prio)
    h.sim.run(until=until)
    if until is not None:
        assert all(tm > until for tm, _ev in h.model.iter_entries())
        h.sim.run()
    assert h.model.pop() is None
    assert len(q) == 0
    _scan_check(q)


@settings(max_examples=100, deadline=None)
@given(st.lists(_OPS, max_size=80))
def test_property_iter_entries_agrees_with_model(ops):
    """``iter_entries`` (the scan behind ``live_count_check``) yields
    the live (time, label, seq) multiset of the model."""
    h = _Harness()
    for op, arg in ops:
        h.apply(op, arg)
    m_view = sorted((tm, ev.label, ev.seq) for tm, ev in h.model.iter_entries())
    q_view = sorted((tm, ev.label, ev.seq) for tm, ev in h.sim.queue.iter_entries())
    assert q_view == m_view


def test_cancel_after_delivery_is_inert():
    """Cancelling an already-delivered event must not corrupt counters
    (the kernel cancels phase events that may have just delivered)."""
    sim = Simulator()
    q = sim.queue
    ev = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    sim.run(stop_when=lambda: True)
    assert ev.fn is not None and ev._queue is None  # delivered
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
    sites = (
        lambda sim, fn, prio: sim.queue.push(0.25, fn, priority=prio),
        lambda sim, fn, prio: sim.at(0.25, fn, priority=prio),
        lambda sim, fn, prio: sim.after(0.25 - sim.now, fn, priority=prio),
    )
    for site in sites:
        sim = Simulator()
        out = []

        def push(prio, label):
            site(sim, lambda: out.append(label), prio)

        push(1, "hi")
        push(0, "lo1")
        # Sorts the bucket, delivers lo1; hi stays queued as the tail.
        sim.run(stop_when=lambda: True)
        assert out == ["lo1"]
        push(0, "lo2")  # outranked by the hi tail: must flag, not append blind
        assert 0.25 in sim.queue._unsorted
        sim.run()
        assert out == ["lo1", "lo2", "hi"]
        assert len(sim.queue) == 0


def test_in_order_priority_appends_do_not_flag():
    """A priority push that lands in order (p5 after p5, or p5 after a
    lower-priority tail) must not mark the bucket unsorted — barrier
    instants rely on this to avoid one tail sort per delivered event."""
    sim = Simulator()
    q = sim.queue
    out = []

    def push(prio, label):
        q.push(1.0, lambda: out.append(label), priority=prio)

    push(1, "w1")
    push(1, "w2")  # in order: no flag
    push(5, "r1")  # in order: no flag
    push(5, "r2")  # in order: no flag
    assert 1.0 not in q._unsorted
    push(3, "mid")  # outranked tail: flag
    assert 1.0 in q._unsorted
    sim.run()
    assert out == ["w1", "w2", "mid", "r1", "r2"]


def test_singleton_bucket_promotion_keeps_order():
    """Second push at an instant promotes the singleton to a list; a
    priority push must still deliver in (priority, seq) order."""
    sim = Simulator()
    order = []
    sim.queue.push(1.0, lambda: order.append("p5"), priority=5)
    sim.queue.push(1.0, lambda: order.append("p0a"), priority=0)
    sim.queue.push(1.0, lambda: order.append("p0b"), priority=0)
    sim.run()
    assert order == ["p0a", "p0b", "p5"]
