"""Timeline and interval unit tests."""

import pytest

from repro.trace.records import Interval, State, TaskTimeline


def test_transitions_build_intervals():
    tl = TaskTimeline(1, "t")
    tl.transition(0.0, State.READY)
    tl.transition(1.0, State.RUNNING, cpu=0)
    tl.transition(3.0, State.WAITING)
    tl.finish(4.0)
    assert len(tl.intervals) == 3
    assert tl.intervals[0] == Interval(0.0, 1.0, State.READY, None)
    assert tl.intervals[1] == Interval(1.0, 3.0, State.RUNNING, 0)
    assert tl.intervals[2] == Interval(3.0, 4.0, State.WAITING, None)


def test_same_state_transition_coalesced():
    tl = TaskTimeline(1, "t")
    tl.transition(0.0, State.RUNNING, cpu=0)
    tl.transition(1.0, State.RUNNING, cpu=0)
    tl.finish(2.0)
    assert len(tl.intervals) == 1
    assert tl.intervals[0] == Interval(0.0, 2.0, State.RUNNING, 0)


def test_cpu_change_splits_interval():
    tl = TaskTimeline(1, "t")
    tl.transition(0.0, State.RUNNING, cpu=0)
    tl.transition(1.0, State.RUNNING, cpu=2)
    tl.finish(2.0)
    assert len(tl.intervals) == 2
    assert tl.intervals[0].cpu == 0
    assert tl.intervals[1].cpu == 2


def test_zero_length_interval_dropped():
    tl = TaskTimeline(1, "t")
    tl.transition(1.0, State.RUNNING, cpu=0)
    tl.transition(1.0, State.WAITING)
    tl.finish(2.0)
    assert len(tl.intervals) == 1
    assert tl.intervals[0].state == State.WAITING


def test_time_in_with_window():
    tl = TaskTimeline(1, "t")
    tl.transition(0.0, State.RUNNING, cpu=0)
    tl.transition(4.0, State.WAITING)
    tl.finish(6.0)
    assert tl.time_in(State.RUNNING) == 4.0
    assert tl.time_in(State.RUNNING, start=1.0, end=3.0) == 2.0
    assert tl.time_in(State.WAITING, start=0.0, end=5.0) == 1.0
    assert tl.time_in(State.READY) == 0.0


def test_finish_idempotent_state():
    tl = TaskTimeline(1, "t")
    tl.transition(0.0, State.RUNNING, cpu=0)
    tl.finish(1.0)
    n = len(tl.intervals)
    tl.finish(1.0)
    assert len(tl.intervals) == n
