"""Shared experiment machinery: build, run, measure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.hpcsched import (
    AdaptiveHeuristic,
    HybridHeuristic,
    UniformHeuristic,
    attach_hpcsched,
)
from repro.kernel.core_sched import Kernel
from repro.kernel.task import Task
from repro.kernel.tunables import Tunables
from repro.power5.machine import Machine, MachineTopology
from repro.power5.perfmodel import PerformanceModel, TableDrivenModel
from repro.trace.collector import TraceCollector
from repro.trace.stats import TaskStats
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
    keep_trace: bool = True,
) -> Kernel:
    """A kernel on the paper's machine (1 POWER5: 2 cores x 2 SMT).

    ``keep_trace=False`` builds it with no trace collector, for a run
    that reads only the tasks' own counters.  No PMU is attached: a
    reader of counters attaches one (see ``characterization``).
    """
    machine = Machine(topology or MachineTopology(), perf_model or TableDrivenModel())
    trace = TraceCollector() if keep_trace else None
    return Kernel(machine=machine, tunables=tunables, trace=trace)


def task_results(
    tasks: Mapping[str, Task], names: Iterable[str], end: float, dynamic: bool
) -> Dict[str, TaskResult]:
    """One table row per named task, from the task's own state counters
    closed at ``end``; ``dynamic`` rows carry no fixed priority."""
    rows = {}
    for name in names:
        task = tasks[name]
        running, ready, waiting = task.state_times(end)
        st = TaskStats(task.pid, name, running, ready, waiting, running + ready + waiting)
        rows[name] = TaskResult(
            name=name,
            pct_comp=st.pct_comp,
            pct_running=st.pct_running,
            priority=None if dynamic else task.hw_priority,
            running=running,
            waiting=waiting,
            ready=ready,
        )
    return rows


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
    The table rows come from the tasks' own state counters either way.
    ``keep_trace=False`` returns no kernel, trace or launched workload,
    and builds the kernel with no trace collector, since nothing could
    read them.
    """
    valid = set(SCHEDULERS) | set(HEURISTICS)
    if scheduler not in valid:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; pick from {sorted(valid)}"
        )

    kernel = build_kernel(topology, perf_model, tunables, keep_trace)
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
    if keep_trace:
        kernel.trace.finish(exec_time)
    measured = workload.measured_names()
    result = ExperimentResult(
        workload=workload.name,
        scheduler=scheduler,
        exec_time=exec_time,
        tasks=task_results(
            launched.tasks, measured, exec_time, dynamic=hpc_class is not None
        ),
        trace=kernel.trace,
        kernel=kernel if keep_trace else None,
        launched=launched if keep_trace else None,
    )
    lat_means: List[float] = []
    for name in measured:
        task = launched.tasks[name]
        n = task.wakeups
        lat_means.append(task.sum_wakeup_latency / n if n else 0.0)
        result.max_wakeup_latency = max(
            result.max_wakeup_latency, task.max_wakeup_latency
        )
        result.priority_history[name] = list(task.hw_priority_history)
    result.mean_wakeup_latency = (
        sum(lat_means) / len(lat_means) if lat_means else 0.0
    )
    if hpc_class is not None:
        result.priority_changes = hpc_class.detector.priority_changes
    return result
