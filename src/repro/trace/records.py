"""Trace primitives: events, states, intervals, per-task timelines."""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import Any, List, Mapping, NamedTuple, Optional


class State(Enum):
    """Task states as PARAVER would color them."""

    RUNNING = "running"  # computing on a CPU (dark gray in the paper)
    READY = "ready"  # runnable, waiting for a CPU
    WAITING = "waiting"  # blocked (MPI wait / sleep; light gray)
    NONE = "none"  # not yet started / exited


class TraceEvent(NamedTuple):
    """A raw scheduler event.

    An immutable tuple, because a kept trace builds one per scheduler
    event and construction cost shows in the run time.  ``info``
    defaults to a shared read-only empty mapping.
    """

    time: float
    pid: int
    name: str
    kind: str
    info: Mapping[str, Any] = MappingProxyType({})


class Interval(NamedTuple):
    """A maximal span of constant task state."""

    start: float
    end: float
    state: State
    cpu: Optional[int] = None


class TaskTimeline:
    """Ordered state intervals of one task."""

    def __init__(self, pid: int, name: str) -> None:
        self.pid = pid
        self.name = name
        self.intervals: List[Interval] = []
        # open interval being built
        self._state: State = State.NONE
        self._since: float = 0.0
        self._cpu: Optional[int] = None

    def transition(self, time: float, state: State, cpu: Optional[int] = None) -> None:
        """Close the current interval at ``time`` and open a new one."""
        if state == self._state and cpu == self._cpu:
            return
        if self._state != State.NONE and time > self._since:
            self.intervals.append(Interval(self._since, time, self._state, self._cpu))
        self._state = state
        self._since = time
        self._cpu = cpu

    def finish(self, time: float) -> None:
        """Flush the open interval at end of simulation."""
        self.transition(time, State.NONE)

    def time_in(self, state: State, start: float = 0.0, end: float = float("inf")) -> float:
        """Total time spent in ``state`` within the window [start, end]."""
        total = 0.0
        for iv in self.intervals:
            if iv.state != state:
                continue
            lo = max(iv.start, start)
            hi = min(iv.end, end)
            if hi > lo:
                total += hi - lo
        return total
