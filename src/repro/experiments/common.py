"""Shared experiment machinery: build, run, measure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.hpcsched import (
    AdaptiveHeuristic,
    HybridHeuristic,
    UniformHeuristic,
    attach_hpcsched,
)
from repro.kernel.core_sched import Kernel
from repro.kernel.tunables import Tunables
from repro.power5.machine import Machine, MachineTopology
from repro.power5.perfmodel import PerformanceModel, TableDrivenModel
from repro.trace.collector import TraceCollector
from repro.trace.stats import compute_stats
from repro.workloads.base import LaunchedWorkload, Workload, launch_workload
from repro.workloads.noise import NoiseDaemons, spawn_noise

#: The scheduler configurations of the paper's tables.
SCHEDULERS = ("cfs", "static", "uniform", "adaptive")

#: HPCSched heuristics by scheduler name ("hybrid" is this repo's
#: future-work extension, not one of the paper's configurations).
HEURISTICS = {
    "uniform": UniformHeuristic,
    "adaptive": AdaptiveHeuristic,
    "hybrid": HybridHeuristic,
}


@dataclass
class TaskResult:
    """One row of a paper-style table."""

    name: str
    pct_comp: float
    pct_running: float
    priority: Optional[int]  # fixed priority, or None for dynamic
    running: float
    waiting: float
    ready: float


@dataclass
class ExperimentResult:
    """Outcome of one (workload, scheduler) run."""

    workload: str
    scheduler: str
    exec_time: float
    tasks: Dict[str, TaskResult] = field(default_factory=dict)
    #: Mean/max wakeup latency over the measured tasks.
    mean_wakeup_latency: float = 0.0
    max_wakeup_latency: float = 0.0
    #: Hardware-priority changes applied by HPCSched (0 for cfs/static).
    priority_changes: int = 0
    #: Per-task hardware-priority history [(time, prio), ...].
    priority_history: Dict[str, List] = field(default_factory=dict)
    #: The trace collector (kept for figure rendering).
    trace: Optional[TraceCollector] = None
    kernel: Optional[Kernel] = None
    launched: Optional[LaunchedWorkload] = None

    def improvement_over(self, other: "ExperimentResult") -> float:
        """Percent execution-time improvement relative to ``other``."""
        if other.exec_time <= 0:
            return 0.0
        return 100.0 * (other.exec_time - self.exec_time) / other.exec_time


def build_kernel(
    topology: Optional[MachineTopology] = None,
    perf_model: Optional[PerformanceModel] = None,
    tunables: Optional[Tunables] = None,
) -> Kernel:
    """A kernel on the paper's machine (1 POWER5: 2 cores x 2 SMT)."""
    machine = Machine(topology or MachineTopology(), perf_model or TableDrivenModel())
    return Kernel(machine=machine, tunables=tunables, trace=TraceCollector())


def run_experiment(
    workload: Workload,
    scheduler: str,
    static_priorities: Optional[Dict[str, int]] = None,
    noise: Optional[NoiseDaemons] = None,
    perf_model: Optional[PerformanceModel] = None,
    tunables: Optional[Tunables] = None,
    topology: Optional[MachineTopology] = None,
    until: Optional[float] = None,
    keep_trace: bool = True,
) -> ExperimentResult:
    """Run ``workload`` under one scheduler configuration.

    ``static_priorities`` maps task names to fixed hardware priorities
    (used with ``scheduler="static"``); ``noise`` optionally adds the
    per-CPU OS-noise daemons; ``topology`` overrides the paper's
    1-chip machine (e.g. for multi-chip scaling studies).
    ``keep_trace=False`` returns no kernel, trace or launched workload,
    and the run skips the PMU attribution and raw event log that only
    those could expose.
    """
    valid = set(SCHEDULERS) | set(HEURISTICS)
    if scheduler not in valid:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; pick from {sorted(valid)}"
        )

    kernel = build_kernel(
        topology=topology, perf_model=perf_model, tunables=tunables
    )
    if not keep_trace:
        # The result drops the kernel and the trace, so nothing could
        # read the PMU counters or the raw event log: record neither.
        # Timelines and the hw-priority log, which the result does
        # return, are still built.
        kernel.pmu_enabled = False
        kernel.trace = TraceCollector(keep_events=False)
    hpc_class = None
    if scheduler in HEURISTICS:
        hpc_class = attach_hpcsched(kernel, HEURISTICS[scheduler]())

    if noise is not None:
        spawn_noise(kernel, noise)

    launched = launch_workload(kernel, workload, use_hpc=hpc_class is not None)

    if scheduler == "static":
        for name, prio in (static_priorities or {}).items():
            kernel.set_hw_priority(launched.tasks[name], prio)

    exec_time = kernel.run(until=until)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    trace = kernel.trace
    assert trace is not None
    measured = workload.measured_names()
    stats = compute_stats(trace, exec_time, names=measured)

    result = ExperimentResult(
        workload=workload.name,
        scheduler=scheduler,
        exec_time=exec_time,
        trace=trace if keep_trace else None,
        kernel=kernel if keep_trace else None,
        launched=launched if keep_trace else None,
    )
    lat_means: List[float] = []
    for name in measured:
        st = stats[name]
        task = launched.tasks[name]
        fixed_prio: Optional[int]
        if scheduler in ("cfs", "static"):
            fixed_prio = task.hw_priority
        else:
            fixed_prio = None  # dynamic (the tables print "-")
        result.tasks[name] = TaskResult(
            name=name,
            pct_comp=st.pct_comp,
            pct_running=st.pct_running,
            priority=fixed_prio,
            running=st.running,
            waiting=st.waiting,
            ready=st.ready,
        )
        acc = kernel.latency_stats.for_task(task.pid)
        lat_means.append(acc.mean)
        result.max_wakeup_latency = max(result.max_wakeup_latency, acc.max)
        result.priority_history[name] = [
            (ev.time, ev.info.get("priority"))
            for ev in trace.priority_changes(task.pid)
        ]
    result.mean_wakeup_latency = (
        sum(lat_means) / len(lat_means) if lat_means else 0.0
    )
    if hpc_class is not None:
        result.priority_changes = hpc_class.detector.priority_changes
    return result
