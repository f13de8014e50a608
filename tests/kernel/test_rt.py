"""Real-time class tests: FIFO/RR semantics, priority ordering."""

import pytest

from repro.kernel import Compute, SchedPolicy, Sleep
from repro.kernel.policies import TaskState
from repro.kernel.rt import RTQueue
from tests.conftest import pure_compute_program, tuned_kernel


def rt_task(kernel, name, prog, prio, cpu=0):
    return kernel.spawn(
        name, prog, cpu=cpu,
        policy=SchedPolicy.FIFO, rt_priority=prio,
    )


def test_higher_rt_priority_runs_first(quiet_kernel):
    k = quiet_kernel
    order = []

    def prog(name):
        def p():
            order.append(name)
            yield Compute(0.01)

        return p()

    k.spawn("low", prog("low"), cpu=0,
            policy=SchedPolicy.FIFO, rt_priority=10)
    k.spawn("high", prog("high"), cpu=0,
            policy=SchedPolicy.FIFO, rt_priority=90)
    k.run()
    assert order == ["high", "low"]


def test_fifo_runs_to_completion(quiet_kernel):
    k = quiet_kernel
    a = rt_task(k, "a", pure_compute_program(0.05), prio=10)
    b = rt_task(k, "b", pure_compute_program(0.05), prio=10)
    k.run()
    # same priority FIFO: a finishes entirely before b starts
    # -> exactly 2 switches into real tasks plus idle transitions
    assert a.state == b.state == TaskState.EXITED


def test_rt_wakeup_preempts_lower_rt(quiet_kernel):
    k = quiet_kernel
    low = rt_task(k, "low", pure_compute_program(0.2), prio=10)

    def waker():
        yield Sleep(0.01)
        yield Compute(0.01)

    hi = rt_task(k, "hi", waker(), prio=50)
    k.run()
    assert hi.wakeups == 1
    assert hi.sum_wakeup_latency / hi.wakeups < 1e-4  # preempted immediately


def test_rt_never_preempted_by_cfs_wakeup(quiet_kernel):
    """A CFS task waking while an RT task computes waits it out."""
    k = quiet_kernel

    def normal():
        yield Compute(0.001)
        yield Sleep(0.02)  # wakes at ~0.02, mid-RT-burst
        yield Compute(0.001)

    n = k.spawn("n", normal(), cpu=0)
    k.sim.after(
        0.01,
        lambda: k.start_task(
            k.create_task(
                "rt",
                pure_compute_program(0.2),
                policy=SchedPolicy.FIFO,
                rt_priority=10,
            ),
            cpu=0,
        ),
    )
    k.run()
    # the second wakeup waited for the RT burst to finish
    assert n.max_wakeup_latency > 0.05


def test_rr_timeslices_rotate():
    k = tuned_kernel(sched_rr_timeslice=0.01)
    a = k.spawn("a", pure_compute_program(0.05), cpu=0,
                policy=SchedPolicy.RR, rt_priority=10)
    b = k.spawn("b", pure_compute_program(0.05), cpu=0,
                policy=SchedPolicy.RR, rt_priority=10)
    k.run(until=0.06)
    # both made progress concurrently thanks to RR rotation
    assert a.sum_exec_runtime > 0.01
    assert b.sum_exec_runtime > 0.01


def test_rr_respects_priority_over_rotation():
    k = tuned_kernel(sched_rr_timeslice=0.01)
    hi = k.spawn("hi", pure_compute_program(0.05), cpu=0,
                 policy=SchedPolicy.RR, rt_priority=50)
    lo = k.spawn("lo", pure_compute_program(0.05), cpu=0,
                 policy=SchedPolicy.RR, rt_priority=10)
    k.run(until=0.04)
    assert lo.sum_exec_runtime == 0.0  # never ran while hi runnable


def test_rt_priority_out_of_range_rejected():
    from repro.kernel.syscalls import SetScheduler

    with pytest.raises(ValueError):
        SetScheduler(SchedPolicy.FIFO, rt_priority=0)
    with pytest.raises(ValueError):
        SetScheduler(SchedPolicy.RR, rt_priority=100)


# ----------------------------------------------------------------------
# RTQueue unit tests
# ----------------------------------------------------------------------
class _FakeTask:
    def __init__(self, prio):
        self.rt_priority = prio


def test_rtqueue_pop_best_order():
    q = RTQueue()
    t1, t2, t3 = _FakeTask(10), _FakeTask(50), _FakeTask(10)
    for t in (t1, t2, t3):
        q.push(t)
    assert q.pop_best() is t2
    assert q.pop_best() is t1  # FIFO within equal priority
    assert q.pop_best() is t3
    assert q.pop_best() is None


def test_rtqueue_push_front():
    q = RTQueue()
    t1, t2 = _FakeTask(10), _FakeTask(10)
    q.push(t1)
    q.push(t2, front=True)
    assert q.pop_best() is t2
