"""Wakeup-latency accounting: each task banks its own."""

from repro.kernel import Compute, SchedPolicy, Sleep
from tests.conftest import pure_compute_program


def test_task_banks_count_sum_and_max_of_its_wakeups(quiet_kernel):
    """The first wakeup waits out an RT burst, the second finds the CPU
    idle: two wakeups, and the sum is the first (the max) plus zero."""
    k = quiet_kernel

    def napper():
        yield Sleep(0.01)  # wakes mid-RT-burst
        yield Compute(0.001)
        yield Sleep(0.5)  # wakes on an idle CPU
        yield Compute(0.001)

    n = k.spawn("n", napper(), cpu=0)
    k.sim.after(
        0.005,
        lambda: k.start_task(
            k.create_task(
                "rt",
                pure_compute_program(0.1),
                policy=SchedPolicy.FIFO,
                rt_priority=10,
            ),
            cpu=0,
        ),
    )
    k.run()
    assert n.wakeups == 2
    assert n.max_wakeup_latency > 0.03
    assert n.sum_wakeup_latency == n.max_wakeup_latency
