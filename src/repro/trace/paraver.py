"""PARAVER-flavoured text export of a trace.

Real PARAVER consumes ``.prv`` files with colon-separated state/event
records.  We emit a faithful subset — a header plus state records
``1:<cpu>:<appl>:<task>:<thread>:<begin>:<end>:<state>`` and event
records ``2:...:<time>:<type>:<value>`` for hardware-priority changes —
so traces can be eyeballed or diffed, and so the export path of the
original tooling is represented in the reproduction.
"""

from __future__ import annotations

from typing import List

from repro.trace.collector import TraceCollector
from repro.trace.records import State

#: PARAVER state codes (subset of the standard palette).
STATE_CODE = {
    State.RUNNING: 1,
    State.READY: 3,
    State.WAITING: 6,
    State.NONE: 0,
}

#: Event type we use for POWER5 hardware-priority changes.
EVT_HW_PRIORITY = 9200001
#: Event type for HPCSched iteration boundaries.
EVT_ITERATION = 9200002

_TIME_SCALE = 1e9  # seconds -> integer nanoseconds


def export_prv(trace: TraceCollector, end_time: float, app_name: str = "repro") -> str:
    """Serialize the trace to a .prv-style string."""
    trace.finish(end_time)
    pids = sorted(trace.timelines)
    task_index = {pid: i + 1 for i, pid in enumerate(pids)}

    lines: List[str] = []
    ntasks = len(pids)
    duration_ns = int(round(end_time * _TIME_SCALE))
    lines.append(
        f"#Paraver (repro:{app_name}):{duration_ns}_ns:1(1):1:"
        + ",".join(f"{task_index[p]}(1:1)" for p in pids)
    )

    records: List[tuple] = []
    for pid in pids:
        tl = trace.timelines[pid]
        tix = task_index[pid]
        for iv in tl.intervals:
            cpu = (iv.cpu if iv.cpu is not None else 0) + 1
            records.append(
                (
                    iv.start,
                    f"1:{cpu}:1:{tix}:1:{int(round(iv.start * _TIME_SCALE))}:"
                    f"{int(round(iv.end * _TIME_SCALE))}:{STATE_CODE[iv.state]}",
                )
            )
    for ev in trace.events:
        if ev.pid not in task_index:
            continue
        tix = task_index[ev.pid]
        if ev.kind == "hw_priority":
            records.append(
                (
                    ev.time,
                    f"2:0:1:{tix}:1:{int(round(ev.time * _TIME_SCALE))}:"
                    f"{EVT_HW_PRIORITY}:{ev.info.get('priority', 0)}",
                )
            )
        elif ev.kind == "iteration":
            records.append(
                (
                    ev.time,
                    f"2:0:1:{tix}:1:{int(round(ev.time * _TIME_SCALE))}:"
                    f"{EVT_ITERATION}:{ev.info.get('index', 0)}",
                )
            )
    records.sort(key=lambda r: r[0])
    lines.extend(r[1] for r in records)
    return "\n".join(lines) + "\n"
