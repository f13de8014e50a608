"""Reproduces the paper's Fig. 3(d) story: a transient disturbance
makes the heuristic take a wrong decision, and it recovers.

"the heuristic may respond too quickly and take the wrong decision.
However, [the trace] also shows how the Adaptive heuristic is able to
recover after the error." (paper §V-A)

We inject a one-shot RT interloper that steals a chunk of one balanced
iteration from a boosted worker's CPU; its utilization dips, the
detector thaws and may demote it (the 'error'); within a couple of
iterations the priorities are back and the run finishes close to the
undisturbed time.
"""

import pytest

from repro.experiments.common import build_kernel
from repro.hpcsched import AdaptiveHeuristic, attach_hpcsched
from repro.kernel.policies import SchedPolicy
from repro.kernel.syscalls import Compute
from repro.workloads.base import launch_workload
from repro.workloads.metbench import MetBench

ITERATIONS = 14
#: Fire the disturbance mid-run, well inside the frozen stable state.
DISTURB_AT = 10.0
#: The interloper steals this much CPU time from P4's context.
STEAL = 1.2


def run_disturbed(disturb: bool):
    """MetBench under Adaptive HPCSched, optionally with the interloper."""
    kernel = build_kernel()
    hpc = attach_hpcsched(kernel, AdaptiveHeuristic())
    launched = launch_workload(
        kernel, MetBench(iterations=ITERATIONS), use_hpc=True
    )
    if disturb:
        def interloper():
            yield Compute(STEAL)

        kernel.sim.after(
            DISTURB_AT,
            lambda: kernel.start_task(
                kernel.create_task(
                    "interloper",
                    interloper(),
                    policy=SchedPolicy.FIFO,
                    rt_priority=50,
                    daemon=True,
                ),
                cpu=3,  # P4's CPU (a boosted worker)
            ),
        )
    exec_time = kernel.run()
    return kernel, hpc, launched, exec_time


@pytest.fixture(scope="module")
def outcomes():
    clean = run_disturbed(False)
    disturbed = run_disturbed(True)
    return clean, disturbed


def test_disturbance_triggers_a_thaw(outcomes):
    (_, hpc_clean, _, _), (_, hpc_dist, _, _) = outcomes
    assert hpc_clean.detector.behaviour_changes == 0
    assert hpc_dist.detector.behaviour_changes >= 1


def test_extra_decisions_follow_the_disturbance(outcomes):
    (_, hpc_clean, _, _), (kernel, hpc_dist, launched, _) = outcomes
    assert hpc_dist.detector.priority_changes > hpc_clean.detector.priority_changes
    # every extra decision happened after the disturbance fired
    extra = [
        ev
        for ev in kernel.trace.events_of_kind("hw_priority")
        if ev.time > DISTURB_AT
    ]
    assert extra


def test_recovery_restores_the_balanced_priorities(outcomes):
    _, (kernel, hpc, launched, _) = outcomes
    # end state: big workers boosted, small workers at base — exactly
    # the pre-disturbance balance
    assert launched.tasks["P2"].hw_priority == 6
    assert launched.tasks["P4"].hw_priority == 6
    assert launched.tasks["P1"].hw_priority == 4
    assert launched.tasks["P3"].hw_priority == 4
    assert hpc.detector.state == "frozen"  # re-frozen after recovery


def test_cost_of_the_error_is_bounded(outcomes):
    (_, _, _, t_clean), (_, _, _, t_dist) = outcomes
    # the run pays for the stolen CPU plus at most a couple of
    # mis-balanced iterations, not a collapse
    assert t_dist - t_clean < STEAL / 2.05 + 2 * (t_clean / ITERATIONS)
