"""Unit tests for the event queue, observed through the one consumer
that delivers from it: :meth:`Simulator.run`."""

from hypothesis import given, strategies as st

from repro.simcore.engine import Simulator


def _deliver_one(sim):
    """Deliver the next pending event (the run stops after it)."""
    sim.run(stop_when=lambda: True)


def test_push_pop_orders_by_time():
    sim = Simulator()
    fired = []
    sim.at(2.0, lambda: fired.append("b"))
    sim.at(1.0, lambda: fired.append("a"))
    sim.at(3.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_priority_breaks_time_ties():
    sim = Simulator()
    order = []
    sim.at(1.0, lambda: order.append("low"), priority=5)
    sim.at(1.0, lambda: order.append("high"), priority=0)
    sim.at(1.0, lambda: order.append("mid"), priority=2)
    sim.run()
    assert order == ["high", "mid", "low"]


def test_insertion_order_breaks_full_ties():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.at(1.0, lambda i=i: order.append(i), priority=0)
    sim.run()
    assert order == list(range(10))


def test_cancelled_events_are_skipped():
    sim = Simulator()
    fired = []
    ev1 = sim.at(1.0, lambda: fired.append("dropme"))
    sim.at(2.0, lambda: fired.append("keep"))
    ev1.cancel()
    assert ev1.cancelled
    sim.run()
    assert fired == ["keep"]
    assert sim.events_processed == 1


def test_len_excludes_lazily_cancelled_events():
    """Regression: len() used to report heap entries, counting cancelled
    corpses awaiting lazy removal.  It must track *pending* events."""
    sim = Simulator()
    q = sim.queue
    ev = sim.at(1.0, lambda: None)
    assert len(q) == 1
    ev.cancel()
    assert len(q) == 0  # cancelled immediately; lazy removal is internal
    sim.run()
    assert sim.events_processed == 0
    assert sim.now == 0.0  # a corpse-only instant does not move the clock
    assert len(q) == 0


def test_len_tracks_push_cancel_pop_mix():
    sim = Simulator()
    q = sim.queue
    fired = []
    handles = [sim.at(float(i), lambda i=i: fired.append(i)) for i in range(5)]
    assert len(q) == 5
    handles[0].cancel()
    handles[3].cancel()
    handles[3].cancel()  # double-cancel must not double-decrement
    assert len(q) == 3
    _deliver_one(sim)
    assert fired == [1]
    assert len(q) == 2
    tracked, actual = q.live_count_check()
    assert tracked == actual == 2


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_property_pop_order_is_sorted(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.at(t, lambda t=t: fired.append(t))
    sim.run()
    assert fired == sorted(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.integers(0, 5)),
        min_size=1,
        max_size=100,
    ),
    st.sets(st.integers(0, 99)),
)
def test_property_cancellation_removes_exactly_the_cancelled(entries, cancel_idx):
    sim = Simulator()
    handles = [sim.at(t, lambda: None, priority=p) for t, p in entries]
    for i in cancel_idx:
        if i < len(handles):
            handles[i].cancel()
    surviving = sum(1 for h in handles if not h.cancelled)
    sim.run()
    assert sim.events_processed == surviving


# ----------------------------------------------------------------------
# Interleaved push/cancel/deliver against a reference list
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
        st.tuples(st.just("deliver")),
    ),
    min_size=1,
    max_size=150,
)


@given(_interleavings)
def test_property_interleaved_ops_match_reference_model(ops):
    """Arbitrary push/cancel/deliver interleavings: the engine must
    deliver exactly like a sorted list keyed by (time, priority, arrival
    index) with cancelled entries dropped — i.e. equal-timestamp events
    keep stable FIFO order and a cancelled event is never delivered."""
    sim = Simulator()
    q = sim.queue
    handles = []  # real Event handles, in push order
    fired = []  # arrival indices, in delivery order
    model = []  # [(time, priority, arrival), ...] still pending
    cancelled = set()  # arrival indices cancelled

    for op in ops:
        if op[0] == "push":
            _, t, prio = op
            t = max(t, sim.now)  # the clock only moves forward
            arrival = len(handles)
            handles.append(
                sim.at(t, lambda a=arrival: fired.append(a), priority=prio)
            )
            model.append((t, prio, arrival))
        elif op[0] == "cancel":
            _, i = op
            if i < len(handles):
                handles[i].cancel()  # inert once delivered
                cancelled.add(i)
        else:  # deliver
            live = sorted(e for e in model if e[2] not in cancelled)
            before = len(fired)
            _deliver_one(sim)
            if not live:
                assert len(fired) == before
                continue
            expect = live[0]
            assert fired[before:] == [expect[2]]  # FIFO among full ties
            assert sim.now == expect[0]
            model.remove(expect)
        # The live count must track the model after every operation.
        assert len(q) == sum(1 for e in model if e[2] not in cancelled)

    # Drain: the remainder must come out in model order, no cancelled
    # event ever surfacing.
    rest = [e[2] for e in sorted(e for e in model if e[2] not in cancelled)]
    before = len(fired)
    sim.run()
    assert fired[before:] == rest


def test_mass_cancellation_compacts_heap():
    """Cancelling most of a large queue rebuilds the buckets and the
    timestamp heap without the corpses; survivors still fire in exact
    (time, priority, seq) order."""
    sim = Simulator()
    q = sim.queue
    out = []
    handles = [sim.at(float(i), lambda i=i: out.append(float(i))) for i in range(500)]
    for i, h in enumerate(handles):
        if i % 5:  # cancel 80%
            h.cancel()
    assert len(q) == 100
    # Bulk compaction kicked in: no longer ~400 corpses on board.
    assert len(q._buckets) < 200 and len(q._times) < 200
    sim.run()
    assert out == [float(i) for i in range(0, 500, 5)]
    assert len(q) == 0


def test_compaction_keeps_live_count_exact():
    """Interleaved push/cancel churn across the compaction threshold
    never desynchronizes the O(1) live counter from the buckets."""
    sim = Simulator()
    q = sim.queue
    handles = []
    for round_ in range(30):
        handles.extend(sim.at(float(round_) + i * 1e-3, lambda: None) for i in range(10))
        for h in handles[::3]:
            h.cancel()
        tracked, actual = q.live_count_check()
        assert tracked == actual == len(q)
    sim.run()
    assert len(q) == 0 and q.live_count_check() == (0, 0)
