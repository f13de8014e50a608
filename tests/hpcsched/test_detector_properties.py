"""Property-based detector tests: random utilization streams must keep
the invariants no matter what the application does."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.common import build_kernel
from repro.hpcsched.detector import LoadImbalanceDetector
from repro.hpcsched.heuristics import (
    AdaptiveHeuristic,
    HybridHeuristic,
    UniformHeuristic,
)
from repro.hpcsched.mechanism import NullMechanism
from tests.conftest import pure_compute_program

HEURISTICS = [UniformHeuristic, AdaptiveHeuristic, HybridHeuristic]


def drive(kernel, detector, tasks, rounds):
    """Feed barrier-style rounds of (util per task) into the detector."""
    for round_utils in rounds:
        kernel.sim.after(1.0, lambda: None)
        kernel.sim.run()
        for task, util in zip(tasks, round_utils):
            task.sum_exec_runtime += util
            detector.on_wait_wakeup(task)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    heuristic_cls=st.sampled_from(HEURISTICS),
    n_tasks=st.integers(2, 5),
    rounds=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5),
        min_size=1,
        max_size=15,
    ),
)
def test_priorities_always_in_window_and_state_valid(
    heuristic_cls, n_tasks, rounds
):
    kernel = build_kernel()
    detector = LoadImbalanceDetector(kernel, heuristic_cls(), NullMechanism())
    tasks = []
    for i in range(n_tasks):
        t = kernel.create_task(f"w{i}", pure_compute_program(1.0))
        t.sleeping_on_wait = True
        detector.task_added(t)
        tasks.append(t)

    lo = kernel.tunables.min_prio
    hi = kernel.tunables.max_prio
    for round_utils in rounds:
        drive(kernel, detector, tasks, [round_utils[:n_tasks]])
        # invariant 1: priorities never escape the window
        assert all(lo <= t.hw_priority <= hi for t in tasks)
        # invariant 2: the state machine is in a legal state
        assert detector.state in ("adjusting", "observing", "frozen")
        # invariant 3: utilization stats stay in [0, 1]
        for stct in detector.stats.values():
            assert 0.0 <= stct.global_util <= 1.0 + 1e-9
            if stct.last_util is not None:
                assert 0.0 <= stct.last_util <= 1.0


@settings(max_examples=20, deadline=None)
@given(
    rounds=st.lists(
        st.sampled_from([(1.0, 0.2), (0.2, 1.0)]),
        min_size=4,
        max_size=30,
    )
)
def test_change_count_bounded_by_behaviour_changes(rounds):
    """Priority changes are bounded: at most a couple per behaviour
    flip, never one per iteration (no unbounded flapping)."""
    kernel = build_kernel()
    detector = LoadImbalanceDetector(kernel, UniformHeuristic(), NullMechanism())
    tasks = []
    for i in range(2):
        t = kernel.create_task(f"w{i}", pure_compute_program(1.0))
        t.sleeping_on_wait = True
        detector.task_added(t)
        tasks.append(t)

    flips = sum(1 for a, b in zip(rounds, rounds[1:]) if a != b)
    drive(kernel, detector, tasks, rounds)
    # 2 initial decisions + at most 2 per flip, plus slack for the
    # observation-round downward corrections
    assert detector.priority_changes <= 2 + 3 * (flips + 1)
