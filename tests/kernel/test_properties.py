"""Property-based kernel tests: random task populations must preserve
global invariants (work conservation, fairness, state consistency)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.common import build_kernel
from repro.kernel.policies import TaskState
from repro.kernel.syscalls import Compute, Sleep
from repro.power5.pmu import MachinePMU
from repro.validate.invariants import consistency_check


def compute_sleep(works):
    def prog():
        for w, s in works:
            yield Compute(w)
            yield Sleep(s)

    return prog()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),  # cpu
            st.lists(
                st.tuples(
                    st.floats(min_value=0.001, max_value=0.05),
                    st.floats(min_value=0.0, max_value=0.02),
                ),
                min_size=1,
                max_size=3,
            ),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_random_populations_conserve_work_and_terminate(tasks):
    """Any mix of pinned compute/sleep tasks must (a) terminate, (b)
    retire exactly the work submitted, (c) never violate runqueue
    invariants, and (d) account occupancy == busy wall time."""
    kernel = build_kernel()
    pmu = kernel.pmu = MachinePMU(kernel.machine)
    handles = []
    for i, (cpu, works) in enumerate(tasks):
        handles.append(
            kernel.spawn(
                f"t{i}", compute_sleep(works), cpu=cpu
            )
        )
    end = kernel.run()
    assert consistency_check(kernel) == []
    assert all(t.state == TaskState.EXITED for t in handles)

    # Work conservation through the PMU: total retired work equals the
    # submitted work (the fluid engine must not lose or invent work).
    # The PMU attributes context-switch windows to the incoming task
    # (like a real PMU counting pipeline-restart cycles), so allow that
    # bounded overcount.
    submitted = sum(w for _, works in tasks for w, _ in works)
    retired = sum(
        pmu.context_counters(c).work_done
        for c in kernel.machine.cpu_ids
    )
    cs_cost = kernel.tunables.context_switch_cost
    slack = kernel.context_switches * cs_cost * 2.2 + 1e-9
    assert submitted - 1e-9 <= retired <= submitted + slack

    # Occupancy == PMU busy time, per context.
    for cpu in kernel.machine.cpu_ids:
        busy = pmu.context_counters(cpu).busy_time
        occupancy = sum(
            t.sum_exec_runtime for t in handles if t.cpu == cpu
        )
        # each task runs only on the CPU it was started on
        assert busy == pytest.approx(occupancy, rel=1e-6, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=0.1), min_size=2, max_size=5),
    st.integers(0, 1_000_000),
)
def test_equal_cfs_tasks_share_one_cpu_fairly(works, seed):
    """N equal-nice busy tasks on one CPU each receive ~1/N of the CPU
    over a window much longer than the scheduling latency."""
    kernel = build_kernel()
    tasks = [
        kernel.spawn(
            f"t{i}",
            compute_sleep([(10.0, 0.0)]),
            cpu=0,
        )
        for i in range(len(works))
    ]
    horizon = 2.0
    kernel.run(until=horizon)
    runtimes = [t.sum_exec_runtime for t in tasks]
    expect = horizon / len(tasks)
    for rt in runtimes:
        assert rt == pytest.approx(expect, rel=0.25)


def test_sleep_wake_storm_consistency():
    """Many tasks blinking on one CPU: invariants hold throughout."""
    kernel = build_kernel()
    for i in range(10):
        kernel.spawn(
            f"blink{i}",
            compute_sleep([(0.002, 0.003)] * 20),
            cpu=i % 4,
        )
    for horizon in (0.01, 0.03, 0.06, 0.09):
        kernel.sim.run(until=horizon)
        assert consistency_check(kernel) == []
    kernel.run()
    assert consistency_check(kernel) == []
