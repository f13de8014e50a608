"""Performance Monitoring Unit (PMU) counters for the SMT cores.

The paper's companion characterization study (reference [4], Boneti et
al. ISCA'08) measured how hardware priorities shift core resources
using the POWER5's performance counters.  This module provides the
simulated equivalent: per-context, time-integrated counters

* ``busy_time``             — seconds the context executed a task,
* ``st_time``               — seconds of that in single-thread mode
                              (sibling idle),
* ``decode_share_integral`` — ∫ decode_share dt while busy (so
                              ``decode_share_integral / busy_time`` is
                              the average decode share received),
* ``work_done``             — work units retired (the simulated IPC
                              integral).

Accumulation is exact and event-driven: the kernel calls
:meth:`CorePMU.advance` at every SMT-state change (context switch,
priority change, sibling idle/busy transition); the interval since the
previous call is attributed to the state snapshotted then.

Known approximation: the few microseconds of context-switch cost are
attributed to the incoming task at its nominal rate (a real PMU would
similarly count pipeline-restart cycles), so ``work_done`` can exceed
the program-visible retired work by ``switches x cost x speed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.power5.decode import decode_shares


@dataclass
class ContextCounters:
    """Accumulated counters of one SMT context."""

    busy_time: float = 0.0
    st_time: float = 0.0
    decode_share_integral: float = 0.0
    work_done: float = 0.0

    @property
    def avg_decode_share(self) -> float:
        """Mean decode share while busy (0..1)."""
        return (
            self.decode_share_integral / self.busy_time
            if self.busy_time > 0
            else 0.0
        )


@dataclass
class _Snapshot:
    busy: bool = False
    single_thread: bool = False
    share: float = 0.0
    rate: float = 0.0


class CorePMU:
    """Counters + state snapshot for one core's two contexts."""

    def __init__(self, core) -> None:
        self.core = core
        self.counters: List[ContextCounters] = [
            ContextCounters() for _ in core.contexts
        ]
        self._snap: List[_Snapshot] = [_Snapshot() for _ in core.contexts]
        self._last_time = 0.0

    def advance(self, now: float) -> None:
        """Attribute the elapsed interval to the previous snapshot, then
        re-snapshot the core's current SMT state."""
        dt = now - self._last_time
        if dt > 0:
            for ctr, snap in zip(self.counters, self._snap):
                if not snap.busy:
                    continue
                ctr.busy_time += dt
                ctr.decode_share_integral += snap.share * dt
                ctr.work_done += snap.rate * dt
                if snap.single_thread:
                    ctr.st_time += dt
        self._last_time = now
        self._resnapshot()

    def _resnapshot(self) -> None:
        ctxs = self.core.contexts
        busy = [c.busy for c in ctxs]
        for i, ctx in enumerate(ctxs):
            snap = self._snap[i]
            snap.busy = busy[i]
            if not busy[i]:
                snap.single_thread = False
                snap.share = 0.0
                snap.rate = 0.0
                continue
            sibling_busy = busy[1 - i]
            snap.single_thread = not sibling_busy
            if sibling_busy:
                snap.share, _ = decode_shares(
                    int(ctxs[i].priority), int(ctxs[1 - i].priority)
                )
            else:
                snap.share = 1.0
            task = ctx.task
            if task is not None and getattr(task, "perf_profile", None) is not None:
                snap.rate = self.core.context_speed(i, task.perf_profile)
            else:
                snap.rate = 0.0


class MachinePMU:
    """PMU aggregation over a whole machine."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.cores: Dict[int, CorePMU] = {
            core.core_id: CorePMU(core) for core in machine.cores()
        }

    def advance_core(self, core, now: float) -> None:
        """Advance one core's counters to ``now`` (kernel hook)."""
        self.cores[core.core_id].advance(now)

    def finalize(self, now: float) -> None:
        """Flush every core's counters at end of run (idempotent)."""
        for pmu in self.cores.values():
            pmu.advance(now)

    def context_counters(self, cpu_id: int) -> ContextCounters:
        """Accumulated counters of the context behind ``cpu_id``."""
        ctx = self.machine.context(cpu_id)
        return self.cores[ctx.core.core_id].counters[ctx.thread_index]
