"""%Comp / utilization statistics tests."""

import pytest

from repro.trace.records import State, TaskTimeline
from repro.trace.stats import (
    TaskStats,
    utilization,
)


def make_stats(running, ready, waiting):
    return TaskStats(
        pid=1, name="t", running=running, ready=ready, waiting=waiting,
        span=running + ready + waiting,
    )


def test_pct_comp_is_application_view():
    """%Comp counts RUNNING + READY (PARAVER can't see descheduling)."""
    s = make_stats(running=6.0, ready=2.0, waiting=2.0)
    assert s.pct_comp == pytest.approx(80.0)
    assert s.pct_running == pytest.approx(60.0)
    assert s.utilization == pytest.approx(0.8)


def test_zero_span_safe():
    s = make_stats(0, 0, 0)
    assert s.pct_comp == 0.0
    assert s.pct_running == 0.0
    assert s.utilization == 0.0


def test_utilization_of_timeline_window():
    tl = TaskTimeline(1, "t")
    tl.transition(0.0, State.RUNNING, cpu=0)
    tl.transition(2.0, State.WAITING)
    tl.finish(4.0)
    assert utilization(tl) == pytest.approx(0.5)
    assert utilization(tl, start=0.0, end=2.0) == pytest.approx(1.0)
    assert utilization(tl, start=2.0, end=4.0) == pytest.approx(0.0)
