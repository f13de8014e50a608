"""ASCII Gantt rendering of task timelines.

Our stand-in for the paper's PARAVER screenshots (Figures 3-6): one row
per task, ``#`` for computing (the paper's dark gray), ``.`` for
waiting/communication (light gray), ``-`` for runnable-but-waiting for a
CPU, and space for not-yet-started/exited.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.trace.collector import TraceCollector
from repro.trace.records import State, TaskTimeline

_GLYPH = {
    State.RUNNING: "#",
    State.READY: "-",
    State.WAITING: ".",
    State.NONE: " ",
}


def render_timeline(timeline: TaskTimeline, t0: float, t1: float, width: int) -> str:
    """Render one task row by midpoint-sampling each column."""
    if t1 <= t0:
        return ""
    step = (t1 - t0) / width
    chars: List[str] = []
    # Walk intervals and columns together (both sorted) for O(n + width).
    ivs = timeline.intervals
    idx = 0
    for col in range(width):
        t = t0 + (col + 0.5) * step
        while idx < len(ivs) and ivs[idx].end <= t:
            idx += 1
        if idx < len(ivs) and ivs[idx].start <= t < ivs[idx].end:
            chars.append(_GLYPH[ivs[idx].state])
        else:
            chars.append(" ")
    return "".join(chars)


def render_gantt(
    trace: TraceCollector,
    end_time: float,
    width: int = 100,
    names: Optional[Iterable[str]] = None,
    start_time: float = 0.0,
) -> str:
    """Multi-row ASCII Gantt chart, one row per task.

    Legend: ``#`` computing, ``.`` waiting (MPI), ``-`` ready (waiting
    for a CPU).
    """
    trace.finish(end_time)
    timelines: Dict[str, TaskTimeline] = {
        tl.name: tl for tl in trace.timelines.values()
    }
    if names is None:
        ordered = [timelines[k] for k in sorted(timelines, key=_name_key)]
    else:
        ordered = [timelines[n] for n in names if n in timelines]
    label_w = max((len(tl.name) for tl in ordered), default=0) + 1
    lines = []
    header = " " * label_w + f"t=[{start_time:.2f}s .. {end_time:.2f}s]"
    lines.append(header)
    for tl in ordered:
        row = render_timeline(tl, start_time, end_time, width)
        lines.append(f"{tl.name:<{label_w}}{row}")
    lines.append(" " * label_w + "legend: # compute   . wait   - ready")
    return "\n".join(lines)


def _name_key(name: str):
    """Sort P1, P2, ... P10 naturally."""
    digits = "".join(c for c in name if c.isdigit())
    return (name.rstrip("0123456789"), int(digits) if digits else -1)
