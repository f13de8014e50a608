"""Scheduler-core behaviour: task lifecycle, execution, blocking,
preemption across classes, context switches, accounting."""

import pytest

from repro.kernel import Compute, Exit, SchedPolicy, Sleep
from repro.kernel.policies import TaskState
from repro.kernel.syscalls import SetScheduler
from repro.power5.perfmodel import CPU_BOUND
from tests.conftest import compute_sleep_program, pure_compute_program


def test_task_runs_and_exits(quiet_kernel):
    k = quiet_kernel
    t = k.spawn("t", pure_compute_program(0.5), cpu=0)
    end = k.run()
    assert t.state == TaskState.EXITED
    # alone on its core: ST speedup applies
    assert end == pytest.approx(0.5 / CPU_BOUND.st_speedup, rel=1e-6)


def test_compute_time_scales_with_smt_corun(quiet_kernel):
    k = quiet_kernel
    a = k.spawn("a", pure_compute_program(1.0), cpu=0)
    b = k.spawn("b", pure_compute_program(1.0), cpu=1)
    end = k.run()
    # co-running at equal priority: both at speed 1.0 -> 1.0s
    assert end == pytest.approx(1.0, rel=1e-6)


def test_different_cores_dont_interfere(quiet_kernel):
    k = quiet_kernel
    k.spawn("a", pure_compute_program(1.0), cpu=0)
    k.spawn("b", pure_compute_program(1.0), cpu=2)
    end = k.run()
    # separate cores: both in ST mode
    assert end == pytest.approx(1.0 / CPU_BOUND.st_speedup, rel=1e-6)


def test_sleep_blocks_and_wakes(quiet_kernel):
    k = quiet_kernel
    t = k.spawn("t", compute_sleep_program(2, 0.1, pause=0.5), cpu=0)
    end = k.run()
    assert t.state == TaskState.EXITED
    expected = 2 * (0.1 / CPU_BOUND.st_speedup + 0.5)
    assert end == pytest.approx(expected, rel=1e-4)


def test_sibling_idle_gives_st_speed_mid_run(quiet_kernel):
    """When the sibling finishes, the survivor speeds up (fluid rates)."""
    k = quiet_kernel
    k.spawn("short", pure_compute_program(0.5), cpu=0)
    k.spawn("long", pure_compute_program(2.0), cpu=1)
    end = k.run()
    expected = 0.5 + (2.0 - 0.5) / CPU_BOUND.st_speedup
    assert end == pytest.approx(expected, rel=1e-6)


def test_two_tasks_one_cpu_timeshare(quiet_kernel):
    k = quiet_kernel
    a = k.spawn("a", pure_compute_program(0.05), cpu=0)
    b = k.spawn("b", pure_compute_program(0.05), cpu=0)
    end = k.run()
    assert a.state == b.state == TaskState.EXITED
    # serialized on one context in ST mode (sibling idle)
    assert end == pytest.approx(0.1 / CPU_BOUND.st_speedup, rel=0.05)
    assert k.context_switches >= 2


def test_sum_exec_runtime_accounts_occupancy(quiet_kernel):
    k = quiet_kernel
    t = k.spawn("t", pure_compute_program(1.0), cpu=0)
    end = k.run()
    assert t.sum_exec_runtime == pytest.approx(end, rel=1e-6)


def test_hw_priority_biases_corunners(quiet_kernel):
    k = quiet_kernel
    a = k.spawn("a", pure_compute_program(1.0), cpu=0)
    b = k.spawn("b", pure_compute_program(1.0), cpu=1)
    k.set_hw_priority(a, 6)
    k.run()
    # a (prio 6) must finish well before b (prio 4)
    assert a.sum_exec_runtime < b.sum_exec_runtime


def test_set_hw_priority_requires_privilege(quiet_kernel):
    from repro.power5.priorities import PriorityError, PrivilegeLevel

    k = quiet_kernel
    t = k.create_task("t", pure_compute_program(1.0))
    with pytest.raises(PriorityError):
        k.set_hw_priority(t, 6, privilege=PrivilegeLevel.USER)
    k.set_hw_priority(t, 4, privilege=PrivilegeLevel.USER)  # allowed
    assert t.hw_priority == 4


def test_priority_restored_on_context_switch(quiet_kernel):
    """A task's hw priority survives being scheduled out and back in."""
    k = quiet_kernel

    def prog():
        yield Compute(0.01)
        yield Sleep(0.01)
        yield Compute(0.01)

    t = k.spawn("t", prog(), cpu=0)
    k.set_hw_priority(t, 6)
    k.run()
    assert t.hw_priority == 6
    assert k.machine.context(0).priority == 1  # idle snooze at the end


def test_exit_request(quiet_kernel):
    k = quiet_kernel

    def prog():
        yield Compute(0.01)
        yield Exit()
        yield Compute(100.0)  # never reached

    t = k.spawn("t", prog(), cpu=0)
    end = k.run()
    assert t.state == TaskState.EXITED
    assert end < 1.0


def test_on_exit_callback(quiet_kernel):
    k = quiet_kernel
    done = []
    t = k.create_task("t", pure_compute_program(0.01))
    t.on_exit = lambda task: done.append(task.pid)
    k.start_task(t, cpu=0)
    k.run()
    assert done == [t.pid]


def test_empty_program_exits_immediately(quiet_kernel):
    k = quiet_kernel

    def prog():
        return
        yield  # pragma: no cover

    t = k.spawn("t", prog(), cpu=0)
    k.run()
    assert t.state == TaskState.EXITED


def test_zero_work_compute_skipped(quiet_kernel):
    k = quiet_kernel

    def prog():
        yield Compute(0.0)
        yield Compute(0.1)

    t = k.spawn("t", prog(), cpu=0)
    end = k.run()
    assert end == pytest.approx(0.1 / CPU_BOUND.st_speedup, rel=1e-6)


def test_daemon_tasks_dont_block_termination(quiet_kernel):
    k = quiet_kernel

    def forever():
        while True:
            yield Compute(0.01)
            yield Sleep(0.01)

    k.spawn("daemon", forever(), cpu=1, daemon=True)
    k.spawn("worker", pure_compute_program(0.1), cpu=0)
    end = k.run()
    assert end < 1.0  # stopped when the worker exited


def test_setscheduler_moves_class(quiet_kernel):
    k = quiet_kernel

    def prog():
        yield SetScheduler(SchedPolicy.FIFO, rt_priority=10)
        yield Compute(0.05)

    t = k.spawn("t", prog(), cpu=0)
    k.run()
    assert t.policy == SchedPolicy.FIFO
    assert t.rt_priority == 10


def test_setscheduler_on_a_ready_task_raises(quiet_kernel):
    """A task changes only its own policy, so it is the running one;
    asked for a queued task, ``sched_setscheduler`` refuses by name and
    changes nothing."""
    k = quiet_kernel
    a = k.spawn("a", pure_compute_program(0.1), cpu=0)
    b = k.spawn("queued", pure_compute_program(0.1), cpu=0)
    k.run(until=0.01)
    waiting = a if a.state == TaskState.READY else b
    assert waiting.state == TaskState.READY
    with pytest.raises(ValueError, match=repr(waiting.name)):
        k.sched_setscheduler(waiting, SchedPolicy.FIFO, rt_priority=10)
    assert waiting.policy == SchedPolicy.NORMAL
    assert waiting.sched_class is k.fair
    k.run()
    assert a.state == b.state == TaskState.EXITED


def test_rt_preempts_normal(quiet_kernel):
    k = quiet_kernel
    normal = k.spawn("n", pure_compute_program(0.2), cpu=0)

    def rt_prog():
        yield Compute(0.05)

    k.sim.after(0.01, lambda: k.start_task(
        k.create_task("rt", rt_prog(), policy=SchedPolicy.FIFO, rt_priority=50),
        cpu=0,
    ))
    k.run()
    # RT task must have preempted: normal saw a READY gap
    assert k.context_switches >= 3


def test_start_without_a_machine_cpu_rejected(quiet_kernel):
    """A task runs where it starts: no CPU, or one the machine lacks,
    is a loud error naming the task, and leaves the task NEW."""
    k = quiet_kernel
    t = k.create_task("lost", pure_compute_program(0.1))
    for cpu in (None, 4, -1):
        with pytest.raises(ValueError, match="'lost'"):
            k.start_task(t, cpu=cpu)
    assert t.state == TaskState.NEW and k.live_tasks == 0
    with pytest.raises(ValueError, match="'stray'"):
        k.spawn("stray", pure_compute_program(0.1))
    k.start_task(t, cpu=3)
    assert k.run() > 0 and t.state == TaskState.EXITED


def test_start_twice_rejected(quiet_kernel):
    k = quiet_kernel
    t = k.create_task("t", pure_compute_program(0.1))
    k.start_task(t, cpu=0)
    with pytest.raises(ValueError):
        k.start_task(t, cpu=0)


def test_wake_up_non_sleeping_is_noop(quiet_kernel):
    k = quiet_kernel
    t = k.spawn("t", pure_compute_program(0.1), cpu=0)
    assert k.wake_up(t) is False


def test_unknown_policy_without_class(quiet_kernel):
    k = quiet_kernel
    t = k.create_task("t", pure_compute_program(0.1), policy=SchedPolicy.HPC)
    with pytest.raises(ValueError, match="HPC"):
        k.start_task(t, cpu=0)


def test_wakeup_latency_recorded(quiet_kernel):
    k = quiet_kernel
    t = k.spawn("t", compute_sleep_program(3, 0.01, pause=0.02), cpu=0)
    k.run()
    assert t.wakeups >= 3
    assert t.sum_wakeup_latency / t.wakeups >= 0.0


def test_run_until_horizon(quiet_kernel):
    k = quiet_kernel
    t = k.spawn("t", pure_compute_program(10.0), cpu=0)
    end = k.run(until=0.5)
    assert end == pytest.approx(0.5)
    assert t.state == TaskState.RUNNING
