"""CFS class tests: weights, vruntime, fairness, wakeup preemption."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import Compute, Kernel, Sleep
from repro.kernel.fair import PRIO_TO_WEIGHT, nice_to_weight
from repro.kernel.policies import TaskState
from repro.kernel.task import Task
from tests.conftest import compute_sleep_program, pure_compute_program


def test_weight_table_is_the_kernels():
    assert len(PRIO_TO_WEIGHT) == 40
    assert nice_to_weight(0) == 1024
    assert nice_to_weight(-20) == 88761
    assert nice_to_weight(19) == 15
    # each nice level ~ +-10% CPU -> ratio ~1.25 between neighbours
    for nice in range(-20, 19):
        ratio = nice_to_weight(nice) / nice_to_weight(nice + 1)
        assert 1.15 < ratio < 1.35


def test_equal_nice_share_cpu_fairly(quiet_kernel):
    k = quiet_kernel
    a = k.spawn("a", pure_compute_program(0.5), cpu=0)
    b = k.spawn("b", pure_compute_program(0.5), cpu=0)
    k.run(until=0.4)
    assert a.sum_exec_runtime == pytest.approx(b.sum_exec_runtime, rel=0.15)


def test_nice_biases_cpu_shares(quiet_kernel):
    k = quiet_kernel
    fav = k.spawn("fav", pure_compute_program(5.0), cpu=0, nice=-5)
    vic = k.spawn("vic", pure_compute_program(5.0), cpu=0, nice=5)
    k.run(until=1.0)
    ratio = fav.sum_exec_runtime / max(vic.sum_exec_runtime, 1e-9)
    expect = nice_to_weight(-5) / nice_to_weight(5)
    assert ratio == pytest.approx(expect, rel=0.35)


def test_vruntime_advances_slower_for_heavy_tasks(quiet_kernel):
    k = quiet_kernel
    heavy = k.spawn("h", pure_compute_program(1.0), cpu=0, nice=-10)
    light = k.spawn("l", pure_compute_program(1.0), cpu=0, nice=10)
    k.run(until=0.5)
    # same wall window; the heavy task ran more yet its vruntime is lower
    assert heavy.sum_exec_runtime > light.sum_exec_runtime
    assert heavy.vruntime <= light.vruntime * 1.1


def test_sleeper_gets_bounded_credit(quiet_kernel):
    """A long sleeper must not return with an ancient vruntime and
    starve the queue; placement floors it at min_vruntime - latency."""
    k = quiet_kernel
    hog = k.spawn("hog", pure_compute_program(2.0), cpu=0)

    def sleeper_prog():
        yield Sleep(1.0)
        yield Compute(0.5)

    sleeper = k.spawn("sleeper", sleeper_prog(), cpu=0)
    k.run(until=1.5)
    latency = k.tunables.sched_latency
    # after waking, the sleeper's vruntime is within one latency of the hog's
    assert sleeper.vruntime >= hog.vruntime - latency - 1e-6


def test_wakeup_preemption_when_credit_exceeds_granularity(quiet_kernel):
    k = quiet_kernel
    hog = k.spawn("hog", pure_compute_program(1.0), cpu=0)

    def blinker():
        while True:
            yield Sleep(0.050)
            yield Compute(0.001)

    blink = k.spawn("blink", blinker(), cpu=0, daemon=True)
    k.run()
    # the blinker woke several times and each time preempted the hog
    assert blink.wakeups >= 5
    assert blink.sum_wakeup_latency / blink.wakeups < 0.002


def test_tick_preemption_within_slice_bounds(quiet_kernel):
    """Two equal hogs must alternate with a period bounded by the CFS
    slice, not run to completion back-to-back."""
    k = quiet_kernel
    a = k.spawn("a", pure_compute_program(0.2), cpu=0)
    b = k.spawn("b", pure_compute_program(0.2), cpu=0)
    k.run(until=0.1)
    # both have progressed within the first 100ms
    assert a.sum_exec_runtime > 0.02
    assert b.sum_exec_runtime > 0.02


def test_min_vruntime_monotonic(quiet_kernel):
    k = quiet_kernel
    k.spawn("a", compute_sleep_program(5, 0.01, 0.01), cpu=0)
    k.spawn("b", compute_sleep_program(5, 0.01, 0.01), cpu=0)
    q = k.rqs[0].class_queues["fair"]
    seen = []

    orig = k.fair.account

    def spy(rq, task, delta):
        orig(rq, task, delta)
        seen.append(q.min_vruntime)

    k.fair.account = spy
    k.run()
    assert seen == sorted(seen)


def test_double_enqueue_rejected(quiet_kernel):
    k = quiet_kernel
    t = k.create_task("t", pure_compute_program(1.0))
    k.start_task(t, cpu=0)
    rq = k.rqs[0]
    if t.state == TaskState.READY:
        with pytest.raises(ValueError):
            k.fair.enqueue_task(rq, t)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["ins", "pick"]),
            st.integers(0, 11),  # pid
            st.sampled_from([0.0, 0.5, 1.0, 2.5]),  # few vruntimes: ties
            st.sampled_from([-5, 0, 7]),
        ),
        max_size=120,
    )
)
def test_cfs_queue_matches_a_sorted_model(ops):
    """Random inserts and picks against a sorted model: the timeline
    is ordered by (vruntime, pid), so equal vruntimes are tie-broken by
    pid; leftmost, nr_queued and total weight follow, and a queued pid
    cannot enqueue twice."""
    k = Kernel()
    fair = k.fair
    rq = k.rqs[0]
    q = rq.class_queues["fair"]
    model = {}  # pid -> task
    for op, n, vruntime, nice in ops:
        if op == "ins":
            if n in model:
                with pytest.raises(ValueError, match="double-enqueued"):
                    fair.enqueue_task(rq, model[n])
            else:
                task = Task(pid=n, name=f"t{n}", nice=nice)
                task.vruntime = vruntime
                fair.enqueue_task(rq, task)
                model[n] = task
        elif op == "pick":
            picked = fair.pick_next_task(rq)
            if model:
                first = min(model.values(), key=lambda t: (t.vruntime, t.pid))
                assert picked is first
                del model[picked.pid]
            else:
                assert picked is None
        order = sorted(model.values(), key=lambda t: (t.vruntime, t.pid))
        assert q.leftmost() is (order[0] if order else None)
        assert fair.nr_queued(rq) == len(order)
        assert q.total_weight == sum(nice_to_weight(t.nice) for t in order)
