"""Quantitative fluid-rate engine tests: exact arithmetic checks of
progress banking across rate changes."""

import pytest

from repro.cluster import Cluster
from repro.cluster.gang import block_placement
from repro.kernel import Compute
from repro.power5.perfmodel import CPU_BOUND, MIXED
from repro.power5.pmu import MachinePMU
from tests.conftest import pure_compute_program

ST = CPU_BOUND.st_speedup  # 2.1
PLUS2 = CPU_BOUND.dprio_speed[2]  # 2.05
MINUS2 = CPU_BOUND.dprio_speed[-2]  # 0.29


def test_exact_completion_time_st_mode(quiet_kernel):
    k = quiet_kernel
    k.spawn("t", pure_compute_program(1.05), cpu=0)
    assert k.run() == pytest.approx(1.05 / ST, rel=1e-9)


def test_exact_rate_rebase_on_sibling_exit(quiet_kernel):
    """Phase 1 at SMT-equal speed until the sibling finishes, phase 2
    in ST mode: completion time is the exact two-segment integral."""
    k = quiet_kernel
    k.spawn("short", pure_compute_program(0.3), cpu=0)
    k.spawn("long", pure_compute_program(1.0), cpu=1)
    end = k.run()
    expected = 0.3 + (1.0 - 0.3) / ST
    assert end == pytest.approx(expected, rel=1e-9)


def test_exact_rebase_on_priority_change_mid_phase(quiet_kernel):
    """Boost a running task halfway through: the remaining work is
    retimed at the new rate, exactly."""
    k = quiet_kernel
    a = k.spawn("a", pure_compute_program(1.0), cpu=0)
    b = k.spawn("b", pure_compute_program(10.0), cpu=1)
    boost_at = 0.4
    k.sim.after(boost_at, lambda: k.set_hw_priority(a, 6))
    k.run(until=5.0)
    # a: 0.4 work at speed 1, then (1.0-0.4) at PLUS2
    expected_a_end = boost_at + (1.0 - boost_at * 1.0) / PLUS2
    assert a.sum_exec_runtime == pytest.approx(expected_a_end, rel=1e-9)


def test_victim_slowdown_is_exact(quiet_kernel):
    k = quiet_kernel
    a = k.spawn("a", pure_compute_program(10.0), cpu=0)
    b = k.spawn("b", pure_compute_program(0.29), cpu=1)
    k.set_hw_priority(a, 6)  # b at -2 from t=0
    end = k.run(until=2.0)
    # b retires MINUS2 per second while a is busy; its 0.29 units take
    # exactly 1.0s
    assert b.state.value == "exited"
    assert b.sum_exec_runtime == pytest.approx(0.29 / MINUS2, rel=1e-9)


def test_three_segment_timeline(quiet_kernel):
    """SMT-equal, then deprioritized, then ST: all three rates appear
    in one task's phase and the end time is the exact piecewise sum."""
    k = quiet_kernel
    victim = k.spawn("victim", pure_compute_program(1.0), cpu=0)
    other = k.spawn("other", pure_compute_program(0.8), cpu=1)
    # at t=0.2 the sibling gets boosted; it finishes 0.8 work as:
    #   0.2 at speed 1.0 -> 0.6 left at PLUS2 -> done at 0.2 + 0.6/2.05
    k.sim.after(0.2, lambda: k.set_hw_priority(other, 6))
    end = k.run()
    t_other = 0.2 + (0.8 - 0.2) / PLUS2
    # victim: speed 1 for 0.2, MINUS2 until t_other, ST afterwards
    done_before_st = 0.2 * 1.0 + (t_other - 0.2) * MINUS2
    t_victim = t_other + (1.0 - done_before_st) / ST
    assert end == pytest.approx(t_victim, rel=1e-9)


def test_profiles_apply_per_task(quiet_kernel):
    """Two different profiles co-running: each context uses its own
    task's curve."""
    k = quiet_kernel
    pmu = k.pmu = MachinePMU(k.machine)
    cpu_task = k.spawn("c", pure_compute_program(10.0), cpu=0,
                       perf_profile=CPU_BOUND)
    mem_task = k.spawn("m", pure_compute_program(10.0), cpu=1,
                       perf_profile=MIXED)
    k.set_hw_priority(cpu_task, 6)
    k.run(until=1.0)
    rate_c = pmu.context_counters(0).work_done
    rate_m = pmu.context_counters(1).work_done
    assert rate_c == pytest.approx(CPU_BOUND.dprio_speed[2], rel=1e-6)
    assert rate_m == pytest.approx(MIXED.dprio_speed[-2], rel=1e-6)


def test_stall_to_rate_zero_then_restart(quiet_kernel):
    """THREAD_OFF stalls a phase (rate 0, no completion owed); restoring
    the priority restarts it with exactly the banked remaining work."""
    from repro.power5.priorities import PrivilegeLevel

    k = quiet_kernel
    a = k.spawn("a", pure_compute_program(0.5), cpu=0)
    b = k.spawn("b", pure_compute_program(10.0), cpu=1)
    off_at, on_at = 0.2, 0.5
    k.sim.after(
        off_at,
        lambda: k.set_hw_priority(a, 0, privilege=PrivilegeLevel.HYPERVISOR),
    )
    k.sim.after(
        on_at,
        lambda: k.set_hw_priority(a, 4, privilege=PrivilegeLevel.HYPERVISOR),
    )
    k.sim.run(until=0.3)
    # Stalled: still RUNNING, but no completion event or ETA is owed.
    assert a.state.value == "running"
    assert a.phase_rate == 0.0
    assert a.phase_event is None and a.phase_eta is None
    k.sim.run(until=5.0)
    # a: 0.2 work at SMT-equal speed 1, a 0.3s stall, then the banked
    # 0.3 remaining work again at speed 1 (b is far from done).
    assert a.state.value == "exited"
    assert a.sum_exec_runtime == pytest.approx(
        on_at + (0.5 - off_at * 1.0) / 1.0, rel=1e-9
    )


def test_speedup_after_slowdown_within_one_phase(quiet_kernel):
    """A slowdown lets the pending completion ride (stale, earlier than
    the true ETA); a speedup before it fires must re-push, and the final
    completion is the exact three-segment integral."""
    k = quiet_kernel
    victim = k.spawn("victim", pure_compute_program(1.0), cpu=0)
    hog = k.spawn("hog", pure_compute_program(50.0), cpu=1)
    slow_at, fast_at = 0.1, 0.3
    k.sim.after(slow_at, lambda: k.set_hw_priority(hog, 6))  # victim at -2
    k.sim.after(fast_at, lambda: k.set_hw_priority(hog, 4))  # back to equal
    k.sim.run(until=0.2)
    # Mid-slowdown: the original event rides ahead of the true ETA.
    assert victim.phase_event is not None
    assert victim.phase_event.time < victim.phase_eta
    k.sim.run(until=10.0)
    assert victim.state.value == "exited"
    done_slow = slow_at * 1.0 + (fast_at - slow_at) * MINUS2
    t_end = fast_at + (1.0 - done_slow) / 1.0
    assert victim.sum_exec_runtime == pytest.approx(t_end, rel=1e-9)


def test_preempt_cancels_stale_ridden_event(quiet_kernel):
    """Preempting a task whose stale (ridden) completion event is still
    in the heap must cancel it; the resumed phase finishes with exactly
    the remaining work and the stale delivery never fires."""
    from repro.kernel.policies import SchedPolicy

    k = quiet_kernel
    victim = k.spawn("victim", pure_compute_program(1.0), cpu=0)
    hog = k.spawn("hog", pure_compute_program(50.0), cpu=1)
    k.sim.after(0.1, lambda: k.set_hw_priority(hog, 6))  # ride starts

    def rt_prog():
        yield Compute(0.145)  # 0.05s at MINUS2... RT runs at -2 too

    k.sim.after(
        0.2,
        lambda: k.start_task(
            k.create_task("rt", rt_prog(), policy=SchedPolicy.FIFO,
                          rt_priority=10),
            cpu=0,
        ),
    )
    k.sim.run(until=0.15)
    stale_ev = victim.phase_event
    assert stale_ev is not None and stale_ev.time < victim.phase_eta
    k.sim.run(until=20.0)
    # The ridden event was cancelled at preemption, not delivered.
    assert stale_ev.cancelled
    assert victim.state.value == "exited"
    # victim: 0.1 at speed 1, then MINUS2 until preempted at 0.2, a
    # pause of 0.145/MINUS2 while the RT task runs (also at -2 vs the
    # boosted hog), then MINUS2 again until its work is done.
    rt_window = 0.145 / MINUS2
    done_before = 0.1 * 1.0 + (0.2 - 0.1) * MINUS2
    t_end = 0.2 + rt_window + (1.0 - done_before) / MINUS2
    assert victim.sum_exec_runtime == pytest.approx(
        t_end - rt_window, rel=1e-3
    )


def test_same_instant_sibling_install_rearms_without_riding(quiet_kernel):
    """The first of two SMT siblings installed at one instant is armed
    at the ST rate, then slowed by the second install before any work
    is banked: its completion is re-pushed at once rather than left to
    ride to a stale delivery."""
    k = quiet_kernel
    first = k.spawn("first", pure_compute_program(1.0), cpu=0)
    second = k.spawn("second", pure_compute_program(1.0), cpu=1)
    k.sim.run(until=0.0)
    assert first.phase_rate == second.phase_rate == 1.0
    for task in (first, second):
        assert task.phase_event is not None
        assert task.phase_event.time == task.phase_eta


def test_barrier_ladder_delivers_no_stale_phase_events():
    """Every rate change of a barrier ladder lands at a release or an
    arrival, so no phase-completion delivery is a stale ridden one."""
    c = Cluster(n_nodes=2)
    ranks = 2 * c.cpus_per_node
    deliveries = []
    for node in c.nodes:
        kernel = node.kernel
        complete = kernel._phase_complete

        def wrapped(cpu, task, epoch, complete=complete):
            deliveries.append(epoch != task.phase_epoch)
            complete(cpu, task, epoch)

        kernel._phase_complete = wrapped

    def rung(rank):
        def factory(mpi):
            def prog():
                for _ in range(3):
                    yield mpi.compute(0.01 * (rank + 1))
                    yield mpi.barrier()

            return prog()

        return factory

    c.launch(
        [rung(r) for r in range(ranks)],
        block_placement(ranks, 2, c.cpus_per_node),
    )
    c.run()
    assert len(deliveries) >= 3 * ranks
    assert sum(deliveries) == 0


def test_sleep_then_resume_keeps_remaining_work(quiet_kernel):
    """A task preempted mid-phase resumes with exactly the remaining
    work (no loss, no duplication)."""
    k = quiet_kernel
    from repro.kernel.policies import SchedPolicy

    hog = k.spawn("hog", pure_compute_program(0.13), cpu=0)
    # an RT task interrupts for a fixed window
    def rt_prog():
        yield Compute(0.05)

    k.sim.after(
        0.02,
        lambda: k.start_task(
            k.create_task("rt", rt_prog(), policy=SchedPolicy.FIFO,
                          rt_priority=10),
            cpu=0,
        ),
    )
    end = k.run()
    # total work on cpu0 = 0.13 + 0.05, all in ST mode, plus two context
    # switches' costs (charged as wall time, not work)
    cs = k.tunables.context_switch_cost
    expected = (0.13 + 0.05) / ST
    assert end == pytest.approx(expected, rel=1e-3)
    assert hog.sum_exec_runtime + 0.05 / ST == pytest.approx(end, rel=1e-3)
