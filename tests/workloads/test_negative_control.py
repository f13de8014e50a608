"""Negative control: a balanced application (SP-MZ-like equal zones).

A correct dynamic balancer must (a) recognize there is nothing to fix,
(b) not oscillate, and (c) not cost measurable performance.  The paper
implies this ("the goal of the heuristic is to find a stable state ...
and to remain there"); these tests pin it down.
"""

import pytest

from repro.experiments.common import run_experiment
from repro.workloads.btmz import BTMZ, DEFAULT_ZONE_WORKS


def sp_mz_like(iterations: int, ranks: int = 4) -> BTMZ:
    """An SP-MZ-like configuration: *equal* zone sizes.

    NPB's SP-MZ partitions the mesh into equally-sized zones, so the
    application is intrinsically balanced — the negative control for
    HPCSched: a correct balancer must leave it alone (and must not
    slow it down).
    """
    per_rank = sum(DEFAULT_ZONE_WORKS) / len(DEFAULT_ZONE_WORKS)
    wl = BTMZ(zone_works=[per_rank] * ranks, iterations=iterations)
    wl.name = "sp-mz"
    return wl


@pytest.fixture(scope="module")
def runs():
    return {
        sched: run_experiment(sp_mz_like(iterations=25), sched, keep_trace=False)
        for sched in ("cfs", "uniform", "adaptive", "hybrid")
    }


def test_baseline_is_balanced(runs):
    comps = [t.pct_comp for t in runs["cfs"].tasks.values()]
    assert max(comps) - min(comps) < 5.0
    assert min(comps) > 90.0


@pytest.mark.parametrize("sched", ["uniform", "adaptive", "hybrid"])
def test_hpcsched_does_not_slow_balanced_apps(runs, sched):
    base = runs["cfs"].exec_time
    assert runs[sched].exec_time <= base * 1.01


@pytest.mark.parametrize("sched", ["uniform", "adaptive", "hybrid"])
def test_no_priority_oscillation_on_balanced_apps(runs, sched):
    """At most one initial decision round; afterwards the detector
    freezes.  (All-high utilization -> everyone targets MAX, which is
    equivalent to everyone staying at MIN: differences are zero.)"""
    assert runs[sched].priority_changes <= 4


@pytest.mark.parametrize("sched", ["uniform", "adaptive", "hybrid"])
def test_priorities_end_equal_within_cores(runs, sched):
    """Whatever absolute level the heuristic settled on, SMT siblings
    must end at the *same* level (no residual bias)."""
    hist = runs[sched].priority_history
    final = {}
    for name, entries in hist.items():
        final[name] = entries[-1][1] if entries else 4
    assert final.get("P1", 4) == final.get("P2", 4)
    assert final.get("P3", 4) == final.get("P4", 4)
