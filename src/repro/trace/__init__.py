"""PARAVER-like tracing and trace analysis.

The paper uses PARAVER to visualize per-process state over time (dark
gray = computing, light gray = waiting/communication) and to compute the
``%Comp`` statistics of Tables III-VI.  This package provides the same
capabilities for the simulated kernel:

* :mod:`repro.trace.records` — raw event records and state intervals,
* :mod:`repro.trace.collector` — the kernel-side hook that turns
  scheduler events into per-task interval timelines,
* :mod:`repro.trace.stats` — %Comp / utilization / imbalance statistics,
* :mod:`repro.trace.gantt` — ASCII Gantt rendering of the timelines
  (our stand-in for the paper's trace figures),
* :mod:`repro.trace.paraver` — a PARAVER-flavoured text export.
"""

from repro.trace.records import TraceEvent, Interval, TaskTimeline, State
from repro.trace.collector import TraceCollector
from repro.trace.stats import TaskStats, compute_stats
from repro.trace.gantt import render_gantt

__all__ = [
    "TraceEvent",
    "Interval",
    "TaskTimeline",
    "State",
    "TraceCollector",
    "TaskStats",
    "compute_stats",
    "render_gantt",
]
