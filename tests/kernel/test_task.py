"""Task descriptor unit tests."""

import pytest

from repro.kernel.policies import SchedPolicy, TaskState
from repro.kernel.task import Task


def test_defaults():
    t = Task(pid=1, name="t")
    assert t.state == TaskState.NEW
    assert t.policy == SchedPolicy.NORMAL
    assert t.hw_priority == 4  # the paper's normal priority
    assert not t.is_idle_task


def test_nice_range_validated():
    with pytest.raises(ValueError):
        Task(pid=1, name="t", nice=-21)
    with pytest.raises(ValueError):
        Task(pid=1, name="t", nice=20)


def test_bank_progress_credits_work():
    t = Task(pid=1, name="t")
    t.phase_remaining = 1.0
    t.phase_rate = 2.0
    t.phase_started_at = 0.0
    t.bank_progress(now=0.25)
    assert t.phase_remaining == pytest.approx(0.5)
    assert t.phase_started_at is None
    assert t.phase_rate == 0.0


def test_bank_progress_never_negative():
    t = Task(pid=1, name="t")
    t.phase_remaining = 0.1
    t.phase_rate = 10.0
    t.phase_started_at = 0.0
    t.bank_progress(now=1.0)
    assert t.phase_remaining == 0.0


def test_bank_progress_future_start_is_noop():
    # a phase scheduled to start after a context-switch delay
    t = Task(pid=1, name="t")
    t.phase_remaining = 1.0
    t.phase_rate = 1.0
    t.phase_started_at = 5.0
    t.bank_progress(now=1.0)
    assert t.phase_remaining == pytest.approx(1.0)


def test_cancel_phase_event():
    class Ev:
        cancelled = False

        def cancel(self):
            self.cancelled = True

    t = Task(pid=1, name="t")
    ev = Ev()
    t.phase_event = ev
    t.cancel_phase_event()
    assert ev.cancelled
    assert t.phase_event is None
