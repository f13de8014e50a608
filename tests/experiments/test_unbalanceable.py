"""The §IV-B 'cannot balance' regime: heterogeneous profile pairs.

When the heavy worker is memory-bound, prioritizing it buys ~nothing
while its CPU-bound sibling pays the full decode-starvation cost — no
priority assignment can balance the pair.  The paper predicts its
scheduler "will oscillate between two solutions without being able to
find the perfect balance"; our detector's observation round (downward-
only corrections while measuring) does better: it settles in a stable
state with a small bounded regression instead of flapping.

These tests pin that contract: no oscillation, bounded cost, detector
frozen.
"""

import pytest

from repro.experiments.common import run_experiment
from repro.power5.perfmodel import CPU_BOUND, MEM_BOUND
from repro.workloads.metbench import MetBench


def unbalanceable(iterations=16):
    """Big workers memory-bound: boosting them cannot speed them up,
    and the slowed CPU-bound siblings become the new stragglers."""
    return MetBench(
        loads=[1.1, 3.31, 1.1, 3.31],
        profiles=[CPU_BOUND, MEM_BOUND, CPU_BOUND, MEM_BOUND],
        iterations=iterations,
    )


@pytest.fixture(scope="module")
def runs():
    return {
        sched: run_experiment(unbalanceable(), sched, keep_trace=True)
        for sched in ("cfs", "uniform", "adaptive")
    }


@pytest.mark.parametrize("sched", ["uniform", "adaptive"])
def test_no_priority_flapping(runs, sched):
    """Bounded decision count: the initial (futile) boost, then
    stability — not one change per iteration."""
    res = runs[sched]
    assert res.priority_changes <= 4
    # no task's priority toggled back and forth repeatedly
    for hist in res.priority_history.values():
        assert len(hist) <= 2


@pytest.mark.parametrize("sched", ["uniform", "adaptive"])
def test_regression_is_bounded(runs, sched):
    """The futile boost costs a little (the sibling slowdown) but the
    stable state caps the damage."""
    base = runs["cfs"]
    loss = -runs[sched].improvement_over(base)
    assert loss < 6.0


def test_mem_bound_boost_is_futile(runs):
    """The boosted memory-bound workers barely sped up."""
    base = runs["cfs"]
    uni = runs["uniform"]
    # iteration time is still set by roughly the same bound
    assert uni.exec_time >= base.exec_time * 0.99


def test_detector_reaches_stable_state(runs):
    res = runs["uniform"]
    hpc = None
    for cls in res.kernel.classes:
        if cls.name == "hpc":
            hpc = cls
    assert hpc is not None
    assert hpc.detector.state == "frozen"
