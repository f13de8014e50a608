"""AMR-drift experiment (extension; paper §II-A motivation, [11]).

Huang & Tafti's adaptive-mesh work — cited by the paper as the dynamic
power-balancing motivation — features load that *drifts* rather than
steps.  This experiment runs :class:`repro.workloads.amr.AMRDrift`
under the scheduler matrix: the detector must thaw and re-balance every
time the refinement front crosses a core boundary.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import ExperimentResult, run_experiment
from repro.experiments.registry import register
from repro.workloads.amr import AMRDrift


def run_one(
    scheduler: str,
    iterations: Optional[int] = None,
    keep_trace: bool = True,
) -> ExperimentResult:
    """Run the AMR drift workload under one scheduler configuration."""
    workload = AMRDrift(
        **({"iterations": iterations} if iterations is not None else {})
    )
    return run_experiment(workload, scheduler, keep_trace=keep_trace)


@register("amr")
def run_amr(
    iterations: Optional[int] = None, keep_trace: bool = False
) -> Dict[str, ExperimentResult]:
    """The drift workload under cfs/uniform/adaptive/hybrid."""
    return {
        sched: run_one(sched, iterations=iterations, keep_trace=keep_trace)
        for sched in ("cfs", "uniform", "adaptive", "hybrid")
    }
