"""Extrinsic-imbalance experiment: HPCSched versus OS noise.

Paper §I separates *intrinsic* imbalance (uneven input data — what
Tables III-V exercise) from *extrinsic* imbalance (the OS stealing
cycles from some ranks, references [9]/[24]/[28]).  This experiment
demonstrates that the same mechanism compensates the extrinsic kind: a
*perfectly balanced* MetBench where one CPU hosts a heavy OS daemon.

Under CFS the afflicted rank straggles every iteration (the daemon
shares its CPU) and the whole application waits for it — the classic
noise amplification of [24].  Under HPCSched the shielding comes from
the *scheduling policy*: the HPC class outranks CFS, so the daemon only
ever runs while the rank sleeps in the barrier, and the stolen time
vanishes from the critical path.  The detector, seeing every rank at
high utilization, raises them all — equal priorities, i.e. a no-op for
the hardware, confirming that the gain is pure class ordering (the
same mechanism behind SIESTA's §V-D result, isolated here).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import (
    HEURISTICS,
    ExperimentResult,
    build_kernel,
    task_results,
)
from repro.experiments.registry import register
from repro.hpcsched import attach_hpcsched
from repro.workloads.base import launch_workload
from repro.workloads.metbench import MetBench
from repro.workloads.noise import NoiseDaemons, spawn_noise

#: A heavy daemon: ~20% duty on its CPU — a pathological but
#: illustrative extrinsic disturbance (a runaway system service).
HEAVY_NOISE = NoiseDaemons(period=0.010, burst=0.002, jitter=0.3, seed=23)

#: The afflicted CPU (hosts worker P1).
NOISY_CPU = 0


def balanced_metbench(iterations: int = 20) -> MetBench:
    """Equal loads: all imbalance will come from the noise."""
    load = 1.5
    return MetBench(loads=[load] * 4, iterations=iterations)


def run_one(
    scheduler: str, iterations: int = 20, keep_trace: bool = True
) -> ExperimentResult:
    """Balanced MetBench + one noisy CPU under one scheduler.

    As in :func:`~repro.experiments.common.run_experiment`, the rows
    come from the tasks' own counters, and ``keep_trace=False`` returns
    no kernel or trace and builds the kernel with no trace collector.
    """
    kernel = build_kernel(keep_trace=keep_trace)
    hpc_class = None
    if scheduler in HEURISTICS:
        hpc_class = attach_hpcsched(kernel, HEURISTICS[scheduler]())
    # Noise only on one CPU — run_experiment's noise arg covers all
    # CPUs, so assemble manually.
    spawn_noise(kernel, HEAVY_NOISE, cpus=[NOISY_CPU])
    launched = launch_workload(
        kernel, balanced_metbench(iterations), use_hpc=hpc_class is not None
    )
    exec_time = kernel.run()
    if keep_trace:
        kernel.trace.finish(exec_time)

    names = ["P1", "P2", "P3", "P4"]
    result = ExperimentResult(
        workload="metbench-extrinsic",
        scheduler=scheduler,
        exec_time=exec_time,
        tasks=task_results(
            launched.tasks, names, exec_time, dynamic=hpc_class is not None
        ),
        trace=kernel.trace,
        kernel=kernel if keep_trace else None,
    )
    if hpc_class is not None:
        result.priority_changes = hpc_class.detector.priority_changes
        result.priority_history = {
            name: list(launched.tasks[name].hw_priority_history) for name in names
        }
    return result


@register("extrinsic")
def run_extrinsic(
    iterations: int = 20, keep_trace: bool = False
) -> Dict[str, ExperimentResult]:
    """Balanced MetBench + one noisy CPU under cfs/uniform/adaptive."""
    return {
        sched: run_one(sched, iterations=iterations, keep_trace=keep_trace)
        for sched in ("cfs", "uniform", "adaptive")
    }
