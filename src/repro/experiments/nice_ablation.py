"""Ablation: why not just use nice()?

The paper notes that opting into HPCSched costs the programmer as much
as "the nice() system call commonly used in HPC applications" — but
nice and hardware priorities act on completely different resources:

* ``nice`` biases **CPU-time sharing** among tasks *on the same
  runqueue*.  With the standard HPC deployment of one MPI rank per
  logical CPU, ranks never share a runqueue, so nice cannot move any
  resource between them: the big and small MetBench workers share an
  *SMT core*, not a CPU.
* The POWER5 **hardware priority** biases the core's decode slots
  between the two *hardware contexts* — exactly the boundary the
  imbalance sits on.

This experiment runs MetBench with the big workers at nice -15
(maximum practical CFS favour) and with HPCSched, against the CFS
baseline.  The expected result — nice: ~0%, HPCSched: ~11% — is the
paper's core insight in one table.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import (
    ExperimentResult,
    build_kernel,
    run_experiment,
    task_results,
)
from repro.experiments.registry import register
from repro.workloads.base import launch_workload
from repro.workloads.metbench import MetBench

#: nice level granted to the big-load workers in the "nice" run.
FAVOURED_NICE = -15


def run_nice(iterations: int = 20) -> ExperimentResult:
    """MetBench under CFS with the big workers reniced."""
    kernel = build_kernel(keep_trace=False)
    launched = launch_workload(kernel, MetBench(iterations=iterations))
    for name in ("P2", "P4"):
        launched.tasks[name].nice = FAVOURED_NICE
    exec_time = kernel.run()
    return ExperimentResult(
        workload="metbench",
        scheduler="nice",
        exec_time=exec_time,
        tasks=task_results(
            launched.tasks, ["P1", "P2", "P3", "P4"], exec_time, dynamic=False
        ),
    )


@register("ablation_nice")
def run_ablation_nice(iterations: int = 20, **_kw) -> Dict[str, ExperimentResult]:
    """cfs vs cfs+nice(-15) vs HPCSched on MetBench."""
    return {
        "cfs": run_experiment(
            MetBench(iterations=iterations), "cfs", keep_trace=False
        ),
        "nice": run_nice(iterations=iterations),
        "uniform": run_experiment(
            MetBench(iterations=iterations), "uniform", keep_trace=False
        ),
    }
