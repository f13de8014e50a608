"""Trace statistics: %Comp and utilization.

The paper's tables report, per process, the percentage of time spent
computing (``% Comp``) and the application's total execution time; its
§IV-B defines per-iteration utilization ``U_i = tR / (tR + tW)``.  These
functions compute the same quantities from trace timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.trace.collector import TraceCollector
from repro.trace.records import State


@dataclass(frozen=True)
class TaskStats:
    """Per-task trace summary."""

    pid: int
    name: str
    running: float
    ready: float
    waiting: float
    span: float

    @property
    def pct_comp(self) -> float:
        """The paper's %Comp, as PARAVER measures it: time *not blocked
        in MPI* over the task's lifetime.  Time the OS keeps the task
        runnable-but-descheduled is invisible to application-level
        tracing and counts as computing — which is exactly why SIESTA's
        %Comp barely moves while its wall time improves (Table VI)."""
        if self.span <= 0:
            return 0.0
        return 100.0 * (self.running + self.ready) / self.span

    @property
    def pct_running(self) -> float:
        """OS-view utilization: actual CPU occupancy over lifetime."""
        return 100.0 * self.running / self.span if self.span > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of lifetime spent computing, app view (0..1)."""
        return (self.running + self.ready) / self.span if self.span > 0 else 0.0


def compute_stats(
    trace: TraceCollector,
    end_time: float,
    names: Optional[Iterable[str]] = None,
) -> Dict[str, TaskStats]:
    """Summarize every (or the named) task's timeline."""
    trace.finish(end_time)
    wanted = set(names) if names is not None else None
    out: Dict[str, TaskStats] = {}
    for tl in trace.timelines.values():
        if wanted is not None and tl.name not in wanted:
            continue
        run = tl.time_in(State.RUNNING)
        ready = tl.time_in(State.READY)
        wait = tl.time_in(State.WAITING)
        out[tl.name] = TaskStats(
            pid=tl.pid,
            name=tl.name,
            running=run,
            ready=ready,
            waiting=wait,
            span=run + ready + wait,
        )
    return out

