"""Load Imbalance Detector: iteration stats and the stable-state
machine (adjusting -> observing -> frozen -> thaw)."""

import pytest

from repro.hpcsched.detector import HPCTaskStats, LoadImbalanceDetector
from repro.hpcsched.heuristics import UniformHeuristic
from repro.hpcsched.mechanism import NullMechanism
from repro.kernel import Kernel
from repro.kernel.policies import SchedPolicy
from tests.conftest import pure_compute_program


# ----------------------------------------------------------------------
# HPCTaskStats unit tests
# ----------------------------------------------------------------------
def test_close_iteration_computes_utilization():
    st = HPCTaskStats(pid=1)
    st.iter_start = 0.0
    st.run_snapshot = 0.0
    util = st.close_iteration(now=2.0, run_now=1.0)
    assert util == pytest.approx(0.5)
    assert st.last_util == pytest.approx(0.5)
    assert st.iterations == 1
    assert st.global_util == pytest.approx(0.5)


def test_global_util_weighted_by_duration():
    st = HPCTaskStats(pid=1)
    st.iter_start = 0.0
    st.close_iteration(now=1.0, run_now=1.0)  # util 1.0 over 1s
    st.close_iteration(now=4.0, run_now=1.0)  # util 0.0 over 3s
    assert st.global_util == pytest.approx(0.25)
    assert st.history == [1.0, 0.0]


def test_utilization_clamped_to_one():
    st = HPCTaskStats(pid=1)
    st.iter_start = 0.0
    util = st.close_iteration(now=1.0, run_now=2.0)  # run > wall (fp dust)
    assert util == 1.0


def test_global_util_clamped_consistently_with_iteration_util():
    """Regression: close_iteration clamped the per-iteration ratio but
    accumulated the raw run time, letting Ug = total_run/total_time
    exceed 1.0 under accounting jitter (run > wall)."""
    st = HPCTaskStats(pid=1)
    st.iter_start = 0.0
    st.close_iteration(now=1.0, run_now=2.0)  # jitter: tr > ti
    assert st.global_util <= 1.0
    assert st.total_run == pytest.approx(st.total_time)
    # last_tr is clamped too, so a history reset stays consistent.
    st.reset_history()
    assert st.global_util <= 1.0
    st.close_iteration(now=2.0, run_now=2.5)
    assert st.global_util <= 1.0


def test_zero_duration_iteration_ignored():
    st = HPCTaskStats(pid=1)
    st.iter_start = 5.0
    assert st.close_iteration(now=5.0, run_now=1.0) is None
    assert st.iterations == 0


def test_reset_history_keeps_last():
    st = HPCTaskStats(pid=1)
    st.iter_start = 0.0
    st.close_iteration(now=1.0, run_now=1.0)
    st.close_iteration(now=2.0, run_now=1.2)  # util 0.2
    st.reset_history()
    assert st.iterations == 1
    assert st.history == [pytest.approx(0.2)]
    assert st.global_util == pytest.approx(0.2)


def test_reset_history_before_first_iteration_noop():
    st = HPCTaskStats(pid=1)
    st.reset_history()
    assert st.iterations == 0


# ----------------------------------------------------------------------
# Detector state machine (driven synthetically)
# ----------------------------------------------------------------------
class _Env:
    """A detector on a quiet kernel with two synthetic HPC tasks.

    ``close`` closes one task's iteration at the *current* time;
    ``advance`` moves the shared clock.  A barrier-style round is
    ``advance(wall)`` followed by one ``close`` per task.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.detector = LoadImbalanceDetector(
            kernel, UniformHeuristic(), NullMechanism()
        )
        self.tasks = []
        for i in range(2):
            t = kernel.create_task(f"w{i}", pure_compute_program(1.0))
            t.sleeping_on_wait = True
            self.detector.task_added(t)
            self.tasks.append(t)

    def advance(self, wall):
        self.kernel.sim.after(wall, lambda: None)
        self.kernel.sim.run()

    def close(self, task, wall, run):
        """Advance the clock by ``wall`` and close ``task``'s iteration
        with ``run`` seconds of accumulated execution."""
        if wall:
            self.advance(wall)
        task.sum_exec_runtime += run
        self.detector.on_wait_wakeup(task)

    def round(self, runs, wall=1.0):
        """A barrier round: advance once, close every task."""
        self.advance(wall)
        for task, run in zip(self.tasks, runs):
            task.sum_exec_runtime += run
            self.detector.on_wait_wakeup(task)


def test_imbalanced_iteration_triggers_priorities(quiet_kernel):
    env = _Env(quiet_kernel)
    busy, idle = env.tasks
    env.round([0.99, 0.2])
    assert busy.hw_priority == 6
    assert idle.hw_priority == 4
    assert env.detector.priority_changes == 1


def test_short_wakeup_is_folded_into_iteration(quiet_kernel):
    env = _Env(quiet_kernel)
    busy, idle = env.tasks
    env.close(idle, wall=0.00005, run=0.0)  # below min_iter_time
    assert env.detector.stats[idle.pid].iterations == 0
    env.close(idle, wall=1.0, run=0.5)
    assert env.detector.stats[idle.pid].iterations == 1
    assert env.detector.stats[idle.pid].last_util == pytest.approx(
        0.5 / 1.00005, rel=1e-3
    )


def test_detector_freezes_after_quiet_round(quiet_kernel):
    env = _Env(quiet_kernel)
    # round 1: change (busy task -> 6)
    env.round([0.99, 0.2])
    assert env.detector.state == "observing"
    # round 2: observation only
    env.round([0.95, 0.93])
    assert env.detector.state == "frozen"


def test_frozen_holds_despite_high_utils(quiet_kernel):
    env = _Env(quiet_kernel)
    a, b = env.tasks
    env.round([0.99, 0.2])
    env.round([0.95, 0.93])
    changes_before = env.detector.priority_changes
    # both tasks now look "high utilization" — must NOT be promoted
    for _ in range(3):
        env.round([0.95, 0.93])
    assert env.detector.priority_changes == changes_before
    assert b.hw_priority == 4


def test_behaviour_change_thaws_and_rebalances(quiet_kernel):
    env = _Env(quiet_kernel)
    a, b = env.tasks
    env.round([0.99, 0.2])
    env.round([0.95, 0.93])
    assert env.detector.state == "frozen"
    # behaviour reverses: b is now the busy one, a mostly waits
    env.round([0.10, 0.99])
    assert env.detector.state != "frozen"
    assert env.detector.behaviour_changes == 1
    env.round([0.10, 0.99])
    # history was reset: decisions reflect the new behaviour
    assert a.hw_priority == 4
    assert b.hw_priority == 6


def test_thaw_resets_history(quiet_kernel):
    env = _Env(quiet_kernel)
    a, b = env.tasks
    env.round([0.99, 0.2])
    env.round([0.95, 0.93])
    assert env.detector.state == "frozen"
    env.round([0.1, 0.9])
    st = env.detector.stats[a.pid]
    # reset kept only the revealing iteration (plus at most this round's)
    assert st.iterations <= 2
    assert st.global_util < 0.2


def test_small_fluctuations_do_not_thaw(quiet_kernel):
    env = _Env(quiet_kernel)
    env.round([0.99, 0.2])
    env.round([0.95, 0.90])
    assert env.detector.state == "frozen"
    env.round([0.92, 0.85])  # within rebalance_delta (12 pts)
    assert env.detector.state == "frozen"


def test_task_arrival_thaws_clears_refs_and_allows_refreeze(quiet_kernel):
    """Regression: task_added reset the state machine to adjusting but
    left ``_freeze_ref`` populated from the previous freeze, so the next
    frozen period compared against stale references.  Covers
    FROZEN -> task_added -> re-freeze."""
    env = _Env(quiet_kernel)
    env.round([0.99, 0.2])
    env.round([0.95, 0.93])
    assert env.detector.state == "frozen"
    assert env.detector._freeze_ref  # references exist while frozen

    # A third task joins the application: thaw via task arrival.
    t = env.kernel.create_task("w2", pure_compute_program(1.0))
    t.sleeping_on_wait = True
    env.detector.task_added(t)
    env.tasks.append(t)
    assert env.detector.state == "adjusting"
    assert env.detector._freeze_ref == {}  # stale references cleared

    # The detector re-freezes on the new membership with fresh refs.
    env.round([0.95, 0.93, 0.94])  # new task promoted -> observing
    env.round([0.95, 0.93, 0.94])  # quiet round -> frozen
    assert env.detector.state == "frozen"
    assert set(env.detector._freeze_ref) == {task.pid for task in env.tasks}


def test_task_removed_cleans_up(quiet_kernel):
    env = _Env(quiet_kernel)
    a, b = env.tasks
    env.detector.task_removed(a)
    assert a.pid not in env.detector.stats
    # a lone-task round still works
    env.close(b, wall=1.0, run=0.5)
    assert env.detector.stats[b.pid].iterations == 1


def test_task_added_resets_priority_to_base(quiet_kernel):
    k = quiet_kernel
    det = LoadImbalanceDetector(k, UniformHeuristic(), NullMechanism())
    t = k.create_task("t", pure_compute_program(1.0))
    t.hw_priority = 6
    det.task_added(t)
    assert t.hw_priority == 4  # min_prio


def test_unknown_task_wakeup_ignored(quiet_kernel):
    k = quiet_kernel
    det = LoadImbalanceDetector(k, UniformHeuristic(), NullMechanism())
    t = k.create_task("t", pure_compute_program(1.0))
    det.on_wait_wakeup(t)  # not registered: no crash
    assert det.priority_changes == 0
