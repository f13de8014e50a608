"""Fast-forward engine primitives: the kernel default, batched
same-instant delivery, and the ChainFamily park/re-arm/reap/retime
arithmetic."""

import pytest

from repro.kernel import Kernel
from repro.simcore.engine import SimulationError, Simulator
from repro.simcore.fastforward import ChainFamily


# ----------------------------------------------------------------------
# Default
# ----------------------------------------------------------------------
def test_flag_defaults_on():
    # Elision is the shipped configuration; fastforward=False is only
    # the non-eliding reference for twin runs.
    assert Kernel().fastforward is True
    assert Kernel(fastforward=False).fastforward is False


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


# ----------------------------------------------------------------------
# ChainFamily arithmetic
# ----------------------------------------------------------------------
def _family(sim, interval=0.1, priority=6, inert=lambda: False):
    return ChainFamily(sim, interval, priority, inert)


def _parked_chain(fam, anchor, key="c0"):
    chain = fam.add(key, f"chain/{key}", anchor)
    chain.fire = lambda: None
    fam.park(chain)
    return chain


def _serial_walk(anchor, interval, now):
    """The serial chain's fire instants: anchor, anchor+i, ... — the
    first point at or after ``now``, via the same float accumulation."""
    t = anchor
    while t < now:
        t += interval
    return t


def test_reinstate_walk_matches_serial_float_accumulation():
    sim = Simulator()
    fam = _family(sim, interval=0.1)  # 0.1 is inexact in binary
    chain = _parked_chain(fam, anchor=0.05)
    armed = {}

    def invalidate():
        fam.unpark_ready()
        armed["time"] = chain.next_time

    sim.at(0.347, invalidate, priority=1)
    sim.run()
    expected = _serial_walk(0.05, 0.1, 0.347)
    assert armed["time"] == expected  # bit-equal, not approx
    assert chain.event is not None and chain.event.time == expected
    assert fam.parked == 0
    assert fam.elided == 3  # 0.05, 0.15, 0.25 skipped analytically


def test_reinstate_tie_elides_point_when_chain_fires_earlier():
    # Invalidating event at priority 8 > chain priority 6: the serial
    # chain fire at the same instant preceded it (and was a no-op), so
    # the collided point is already elided and the re-arm lands one
    # interval later.
    sim = Simulator()
    fam = _family(sim, interval=0.25, priority=6)
    chain = _parked_chain(fam, anchor=0.25)
    sim.at(0.75, lambda: fam.unpark_ready(), priority=8)  # == chain point
    sim.run()
    assert chain.next_time == 1.0
    assert fam.elided == 3


def test_reinstate_tie_rearms_at_now_when_chain_fires_later():
    # Priority 1 < chain priority 6: the serial queue orders the chain
    # fire after the invalidating event, so it must be re-armed at the
    # collided instant itself.
    sim = Simulator()
    fam = _family(sim, interval=0.25, priority=6)
    chain = _parked_chain(fam, anchor=0.25)
    fired = []
    chain.fire = lambda: fired.append(sim.now)
    sim.at(0.75, lambda: fam.unpark_ready(), priority=1)
    sim.run()
    assert fired == [0.75]


def test_unpark_ready_skips_still_inert_chains():
    # One witness covers the family: while it holds, an invalidation
    # call reinstates nothing; once it breaks, every parked chain is
    # re-armed at its own next chain point.
    sim = Simulator()
    state = {"inert": True}
    fam = _family(sim, inert=lambda: state["inert"])
    a = _parked_chain(fam, 0.05, key="a")
    b = _parked_chain(fam, 0.08, key="b")
    fired = []
    a.fire = lambda: fired.append(("a", sim.now))
    b.fire = lambda: fired.append(("b", sim.now))

    def still_inert():
        fam.unpark_ready()
        assert a.event is None and b.event is None
        assert fam.parked == 2

    def break_witness():
        state["inert"] = False
        fam.unpark_ready()

    sim.at(0.2, still_inert, priority=1)
    sim.at(0.31, break_witness, priority=1)
    sim.run()
    assert fam.parked == 0
    assert fired == [
        ("a", _serial_walk(0.05, 0.1, 0.31)),
        ("b", _serial_walk(0.08, 0.1, 0.31)),
    ]


def test_dead_window_reaps_chains_whose_points_fell_inside():
    sim = Simulator()
    fam = _family(sim, interval=0.1)
    doomed = _parked_chain(fam, anchor=0.35, key="doomed")
    survivor = _parked_chain(fam, anchor=0.62, key="survivor")

    def run_window():
        fam.mark_dead(0.3)

    def revive():
        fam.reap(sim.now)

    sim.at(0.3, run_window, priority=1)
    sim.at(0.6, revive, priority=1)
    sim.run()
    # doomed's first point 0.35 ∈ [0.3, 0.6) — the serial chain died
    # there; survivor's first point 0.62 is past the revival.
    assert "doomed" not in fam.chains
    assert doomed is not fam.chains.get("doomed")
    assert fam.chains["survivor"] is survivor
    assert survivor.next_time == 0.62
    assert fam.parked == 1
    assert fam.dead_at is None


def test_mark_dead_first_death_wins():
    sim = Simulator()
    fam = _family(sim)
    fam.mark_dead(1.0)
    fam.mark_dead(2.0)
    assert fam.dead_at == 1.0


def test_retime_walks_old_interval_up_to_change_instant():
    sim = Simulator()
    fam = _family(sim, interval=0.1)
    chain = _parked_chain(fam, anchor=0.05)

    def change():
        fam.retime(0.5)

    sim.at(0.33, change, priority=1)
    sim.run()
    # Serial fires before the change used 0.1: 0.05, 0.15, 0.25, then
    # the next anchor 0.35 ≥ change instant; from there 0.5 applies.
    assert chain.next_time == _serial_walk(0.05, 0.1, 0.33)
    assert fam.interval == 0.5


def test_retime_same_interval_is_noop():
    sim = Simulator()
    fam = _family(sim, interval=0.1)
    chain = _parked_chain(fam, anchor=0.05)
    fam.retime(0.1)
    assert chain.next_time == 0.05
