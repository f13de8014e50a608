"""Table V / Figure 5: NAS BT-MZ class A (4 ranks, 200 iterations).

Paper numbers (Table V):

========  =====================================  =========
Test      %Comp (P1, P2, P3, P4)                 Exec. time
========  =====================================  =========
Baseline  17.63, 29.85, 66.09, 99.85             94.97 s
Static    70.64, 42.22, 60.96, 99.85 (4,4,5,6)   79.63 s
Uniform   70.31, 37.18, 65.29, 99.85             79.81 s
Adaptive  70.31, 37.30, 65.30, 99.83             79.92 s
========  =====================================  =========

Both heuristics find the stable state (P4 boosted) and hold it — the
~16% improvement equals the static hand-tuning without any programmer
effort (paper §V-C).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import ExperimentResult, run_experiment
from repro.experiments.registry import register
from repro.workloads.btmz import BTMZ

PAPER_EXEC = {"cfs": 94.97, "static": 79.63, "uniform": 79.81, "adaptive": 79.92}
PAPER_COMP = {
    "cfs": {"P1": 17.63, "P2": 29.85, "P3": 66.09, "P4": 99.85},
    "static": {"P1": 70.64, "P2": 42.22, "P3": 60.96, "P4": 99.85},
    "uniform": {"P1": 70.31, "P2": 37.18, "P3": 65.29, "P4": 99.85},
    "adaptive": {"P1": 70.31, "P2": 37.30, "P3": 65.30, "P4": 99.83},
}
STATIC_PRIORITIES = {"P3": 5, "P4": 6}


def run_one(
    scheduler: str,
    iterations: Optional[int] = None,
    keep_trace: bool = True,
) -> ExperimentResult:
    """Run BT-MZ under one scheduler configuration."""
    workload = BTMZ(
        **({"iterations": iterations} if iterations is not None else {})
    )
    return run_experiment(
        workload,
        scheduler,
        static_priorities=STATIC_PRIORITIES,
        keep_trace=keep_trace,
    )


@register("table5")
def run_table5(
    iterations: Optional[int] = None, keep_trace: bool = False
) -> Dict[str, ExperimentResult]:
    """All four scheduler configurations of Table V."""
    return {
        sched: run_one(sched, iterations=iterations, keep_trace=keep_trace)
        for sched in ("cfs", "static", "uniform", "adaptive")
    }
