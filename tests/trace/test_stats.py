"""%Comp / utilization statistics tests."""

import pytest

from repro.trace.stats import TaskStats


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
