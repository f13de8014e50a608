"""HPC scheduling class tests: registration, queueing, policy
semantics, latency benefits, detector wiring."""

import pytest

from repro.hpcsched import attach_hpcsched
from repro.kernel import Compute, SchedPolicy, Sleep
from repro.kernel.policies import TaskState
from repro.kernel.syscalls import SetScheduler
from tests.conftest import pure_compute_program, tuned_kernel


def hpc_kernel(quiet_kernel):
    cls = attach_hpcsched(quiet_kernel)
    return quiet_kernel, cls


def hpc_spawn(k, name, prog, cpu):
    return k.spawn(
        name, prog, cpu=cpu, policy=SchedPolicy.HPC
    )


def test_attach_inserts_between_rt_and_fair(quiet_kernel):
    k, cls = hpc_kernel(quiet_kernel)
    names = [c.name for c in k.classes]
    assert names == ["rt", "hpc", "fair", "idle"]


def test_attach_twice_rejected(quiet_kernel):
    attach_hpcsched(quiet_kernel)
    with pytest.raises(ValueError):
        attach_hpcsched(quiet_kernel)


def test_hpc_task_runs_and_exits(quiet_kernel):
    k, _ = hpc_kernel(quiet_kernel)
    t = hpc_spawn(k, "t", pure_compute_program(0.1), cpu=0)
    k.run()
    assert t.state == TaskState.EXITED


def test_hpc_beats_cfs_task(quiet_kernel):
    k, _ = hpc_kernel(quiet_kernel)
    normal = k.spawn("n", pure_compute_program(0.2), cpu=0)
    hpc = hpc_spawn(k, "h", pure_compute_program(0.1), cpu=0)
    k.run()
    # the HPC task monopolizes the CPU until done
    assert hpc.sum_exec_runtime > 0
    assert hpc.max_wakeup_latency < 1e-4


def test_rt_still_beats_hpc(quiet_kernel):
    k, _ = hpc_kernel(quiet_kernel)
    hpc = hpc_spawn(k, "h", pure_compute_program(0.1), cpu=0)
    rt = k.spawn(
        "rt", pure_compute_program(0.05), cpu=0,
        policy=SchedPolicy.FIFO, rt_priority=10,
    )
    k.sim.run(until=0.001)
    assert k.rqs[0].current is rt


def test_hpc_wakeup_latency_near_zero_with_cfs_noise(quiet_kernel):
    """The §V-D latency claim: an HPC task waking past CFS tasks."""
    k, _ = hpc_kernel(quiet_kernel)

    def hog():
        while True:
            yield Compute(0.01)

    k.spawn("hog", hog(), cpu=0, daemon=True)

    def blinker():
        for _ in range(10):
            yield Compute(0.001)
            yield Sleep(0.005)

    h = hpc_spawn(k, "h", blinker(), cpu=0)
    k.run()
    assert h.wakeups >= 10
    assert h.max_wakeup_latency < 1e-4  # always preempts the CFS hog immediately


def test_rr_rotation_between_hpc_tasks():
    k, _ = hpc_kernel(tuned_kernel(hpc_rr_timeslice=0.01))
    a = hpc_spawn(k, "a", pure_compute_program(0.06), cpu=0)
    b = hpc_spawn(k, "b", pure_compute_program(0.06), cpu=0)
    k.run(until=0.05)
    assert a.sum_exec_runtime > 0.01
    assert b.sum_exec_runtime > 0.01


def test_no_wakeup_preemption_within_hpc(quiet_kernel):
    k, _ = hpc_kernel(quiet_kernel)
    runner = hpc_spawn(k, "runner", pure_compute_program(1.0), cpu=0)

    def napper():
        yield Compute(0.001)
        yield Sleep(0.01)
        yield Compute(0.001)

    nap = hpc_spawn(k, "nap", napper(), cpu=0)
    k.run()
    # waking mid-run of 'runner', it waited for the RR slice to expire
    # (no wakeup preemption inside the HPC class)
    assert nap.max_wakeup_latency > 0.01


def test_setscheduler_into_hpc_registers_with_detector(quiet_kernel):
    k, cls = hpc_kernel(quiet_kernel)

    def prog():
        yield SetScheduler(SchedPolicy.HPC)
        yield Compute(0.05)

    t = k.spawn("t", prog(), cpu=0)
    k.sim.run(until=0.001)
    assert t.pid in cls.detector.stats
    k.run()
    assert t.pid not in cls.detector.stats  # removed at exit


def test_hpc_starves_daemons_quantified(quiet_kernel):
    """The extrinsic-shield claim, in CPU time: with an HPC hog and a
    CFS daemon sharing a CPU, the daemon's share collapses while the HPC
    task is runnable."""
    k, _ = hpc_kernel(quiet_kernel)

    def daemon():
        while True:
            yield Compute(0.005)
            yield Sleep(0.005)

    d = k.spawn("daemon", daemon(), cpu=0, daemon=True)
    hog = k.spawn("hog", pure_compute_program(0.5), cpu=0,
                  policy=SchedPolicy.HPC)
    k.run()
    assert d.sum_exec_runtime < 0.05 * hog.sum_exec_runtime
