"""PMU counter tests.  A kernel carries no PMU; each test attaches
one before its run, as ``characterization`` does."""

import pytest

from repro.kernel import Compute, Sleep
from repro.power5.decode import decode_shares
from repro.power5.perfmodel import CPU_BOUND
from repro.power5.pmu import MachinePMU
from tests.conftest import compute_sleep_program, pure_compute_program, tuned_kernel


def _attach(k):
    k.pmu = MachinePMU(k.machine)
    return k.pmu


def test_single_task_counters(quiet_kernel):
    k = quiet_kernel
    pmu = _attach(k)
    k.spawn("t", pure_compute_program(1.0), cpu=0)
    end = k.run()
    c = pmu.context_counters(0)
    assert c.busy_time == pytest.approx(end, rel=1e-6)
    assert c.st_time == pytest.approx(end, rel=1e-6)  # sibling idle
    assert c.avg_decode_share == pytest.approx(1.0)
    assert c.work_done == pytest.approx(1.0, rel=1e-6)


def test_corun_equal_priorities_split_decode(quiet_kernel):
    k = quiet_kernel
    pmu = _attach(k)
    k.spawn("a", pure_compute_program(1.0), cpu=0)
    k.spawn("b", pure_compute_program(1.0), cpu=1)
    k.run()
    ca = pmu.context_counters(0)
    cb = pmu.context_counters(1)
    assert ca.avg_decode_share == pytest.approx(0.5, abs=1e-6)
    assert cb.avg_decode_share == pytest.approx(0.5, abs=1e-6)
    assert ca.busy_time - ca.st_time > 0  # time shared with b


def test_priority_difference_measured_by_pmu(quiet_kernel):
    k = quiet_kernel
    pmu = _attach(k)
    a = k.spawn("a", pure_compute_program(2.0), cpu=0)
    b = k.spawn("b", pure_compute_program(2.0), cpu=1)
    k.set_hw_priority(a, 6)  # +2 over b
    k.run(until=0.5)
    ca = pmu.context_counters(0)
    expect_a, _ = decode_shares(6, 4)
    assert ca.avg_decode_share == pytest.approx(expect_a, abs=1e-6)


def test_work_done_tracks_speed(quiet_kernel):
    k = quiet_kernel
    pmu = _attach(k)
    a = k.spawn("a", pure_compute_program(10.0), cpu=0)
    b = k.spawn("b", pure_compute_program(10.0), cpu=1)
    k.set_hw_priority(a, 6)
    k.run(until=1.0)
    ca = pmu.context_counters(0)
    cb = pmu.context_counters(1)
    assert ca.work_done / cb.work_done == pytest.approx(
        CPU_BOUND.dprio_speed[2] / CPU_BOUND.dprio_speed[-2], rel=1e-3
    )


def test_st_time_accrues_when_sibling_sleeps(quiet_kernel):
    k = quiet_kernel
    pmu = _attach(k)

    def napper():
        yield Compute(0.2)
        yield Sleep(1.0)

    k.spawn("n", napper(), cpu=0)
    k.spawn("hog", pure_compute_program(2.0), cpu=1)
    k.run()
    hog = pmu.context_counters(1)
    assert 0 < hog.st_time < hog.busy_time  # some single-thread, some shared


def test_idle_context_counts_nothing(quiet_kernel):
    k = quiet_kernel
    pmu = _attach(k)
    k.spawn("t", pure_compute_program(0.5), cpu=0)
    k.run()
    assert pmu.context_counters(2).busy_time == 0.0
    assert pmu.context_counters(3).work_done == 0.0


def _population(k):
    """Co-running and timeshared compute/sleep tasks with a priority
    change, so every rate-change path drains at least once."""
    a = k.spawn("a", compute_sleep_program(4, 0.05, pause=0.01), cpu=0)
    b = k.spawn("b", compute_sleep_program(3, 0.08, pause=0.02), cpu=1)
    c = k.spawn("c", pure_compute_program(0.1), cpu=1)
    d = k.spawn("d", compute_sleep_program(2, 0.03), cpu=2)
    k.set_hw_priority(a, 6)
    return (a, b, c, d)


def test_attaching_a_pmu_moves_nothing():
    """The PMU only observes: a run with one attached ends at the same
    instant, with bit-equal task occupancy and state times, as the same
    run without."""
    runs = []
    for attach in (False, True):
        k = tuned_kernel()
        if attach:
            _attach(k)
        tasks = _population(k)
        end = k.run()
        runs.append(
            (
                end,
                k.context_switches,
                [
                    (t.sum_exec_runtime, t.state_times(end), t.wakeups)
                    for t in tasks
                ],
            )
        )
        assert (k.pmu is not None) == attach
    assert runs[0] == runs[1]
    assert k.pmu.context_counters(0).busy_time > 0
