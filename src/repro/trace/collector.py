"""Kernel-side trace collector.

Installed on the kernel as ``Kernel(trace=TraceCollector())``; receives
every scheduler event and folds the state-changing ones into per-task
:class:`~repro.trace.records.TaskTimeline` objects.

With ``keep_events=True`` (the default) it also keeps the raw event
stream for detailed analysis (iteration marks, migrations, PARAVER
export).  Whatever ``keep_events`` says, it keeps the hardware-priority
changes in a small log of their own, so :meth:`priority_changes`
answers the same on both kinds of collector.  :meth:`events_of_kind`
needs the raw stream and raises on a collector that dropped it, rather
than report "no such events".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.trace.records import State, TaskTimeline, TraceEvent

#: Scheduler event kind -> resulting task state (None = annotation only).
_KIND_TO_STATE = {
    "run": State.RUNNING,
    "wake": State.READY,
    "preempted": State.READY,
    "block": State.WAITING,
    "exit": State.NONE,
}


class TraceCollector:
    """Accumulates scheduler events into timelines and an event log."""

    def __init__(self, keep_events: bool = True) -> None:
        self.keep_events = keep_events
        self.events: List[TraceEvent] = []
        #: The ``hw_priority`` events, kept even without the raw stream.
        self._priority_log: List[TraceEvent] = []
        self.timelines: Dict[int, TaskTimeline] = {}
        self._finished_at: Optional[float] = None

    # -- kernel hook ---------------------------------------------------
    def record(self, time: float, task: Any, kind: str, **info) -> None:
        """Kernel hook: fold one scheduler event into the trace."""
        if task.is_idle_task:
            return
        if self.keep_events or kind == "hw_priority":
            ev = TraceEvent(time, task.pid, task.name, kind, info)
            if self.keep_events:
                self.events.append(ev)
            if kind == "hw_priority":
                self._priority_log.append(ev)
        state = _KIND_TO_STATE.get(kind)
        if state is None:
            return
        tl = self.timelines.get(task.pid)
        if tl is None:
            tl = TaskTimeline(task.pid, task.name)
            self.timelines[tl.pid] = tl
        tl.transition(time, state, cpu=info.get("cpu"))

    # -- analysis helpers ----------------------------------------------
    def finish(self, time: float) -> None:
        """Close all open intervals at end of run (idempotent)."""
        if self._finished_at == time:
            return
        self._finished_at = time
        for tl in self.timelines.values():
            tl.finish(time)

    def timeline(self, pid: int) -> TaskTimeline:
        """The timeline of the task with ``pid``."""
        return self.timelines[pid]

    def by_name(self, name: str) -> TaskTimeline:
        """The (first) timeline whose task has ``name``."""
        for tl in self.timelines.values():
            if tl.name == name:
                return tl
        raise KeyError(name)

    def events_of_kind(self, kind: str) -> List[TraceEvent]:
        """All raw events of one kind, in time order.

        Raises :class:`ValueError` on a ``keep_events=False`` collector,
        which has no raw stream to answer from.
        """
        if not self.keep_events:
            raise ValueError(
                f"events_of_kind({kind!r}) needs the raw event log, which "
                "this collector drops (keep_events=False)"
            )
        return [ev for ev in self.events if ev.kind == kind]

    def priority_changes(self, pid: Optional[int] = None) -> List[TraceEvent]:
        """All hardware-priority change events (optionally one task's)."""
        return [ev for ev in self._priority_log if pid is None or ev.pid == pid]
