"""The Completely Fair Scheduler class (SCHED_NORMAL / SCHED_BATCH).

Runnable tasks live on a timeline ordered by virtual runtime; the
leftmost task — the one that has received the least weighted CPU time —
runs next (paper §III).  Weights follow the kernel's nice-to-weight
table; a task's slice within the ``sched_latency`` period is
proportional to its weight, bounded below by ``sched_min_granularity``;
wakeup preemption applies a ``sched_wakeup_granularity`` margin.

Linux keeps the timeline in a red-black tree.  Here it is a sorted
list, because the queues are short: on the four benchmark workloads at
full size, no insert ever found more than two tasks already queued, and
most found none (e.g. ``paper_report`` at seed 0: 23,009 inserts into
an empty queue, 3,572 into a queue of one, none into a queue of two).
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.kernel.policies import FAIR_POLICIES
from repro.kernel.sched_class import SchedClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.runqueue import RunQueue
    from repro.kernel.task import Task

#: Weight of a nice-0 task; vruntime advances at wall speed for it.
NICE_0_LOAD = 1024

#: The kernel's prio_to_weight[] table, indexed by ``nice + 20``.
PRIO_TO_WEIGHT = [
    88761, 71755, 56483, 46273, 36291,
    29154, 23254, 18705, 14949, 11916,
    9548, 7620, 6100, 4904, 3906,
    3121, 2501, 1991, 1586, 1277,
    1024, 820, 655, 526, 423,
    335, 272, 215, 172, 137,
    110, 87, 70, 56, 45,
    36, 29, 23, 18, 15,
]


def nice_to_weight(nice: int) -> int:
    """CFS load weight for a nice level."""
    return PRIO_TO_WEIGHT[nice + 20]


class CFSQueue:
    """Per-CPU CFS state: the timeline + aggregate load.

    ``timeline`` holds ``(vruntime, pid, task)`` entries in ascending
    order.  The pid makes every key unique, so the order is total and
    the task itself is never compared.
    """

    __slots__ = ("timeline", "min_vruntime", "total_weight")

    def __init__(self) -> None:
        self.timeline: List[Tuple[float, int, "Task"]] = []
        self.min_vruntime = 0.0
        self.total_weight = 0

    def insert(self, task: "Task") -> None:
        """Place a task on the timeline at its current vruntime."""
        entry = (task.vruntime, task.pid, task)
        insort(self.timeline, entry)
        self.total_weight += nice_to_weight(task.nice)

    def leftmost(self) -> Optional["Task"]:
        """The task with the smallest vruntime (next to run)."""
        timeline = self.timeline
        return timeline[0][2] if timeline else None


class FairClass(SchedClass):
    """CFS: the class for normal tasks."""

    name = "fair"
    policies = FAIR_POLICIES

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        tunables = kernel.tunables
        self._latency = tunables.sched_latency
        self._min_gran = tunables.sched_min_granularity
        self._wakeup_gran = tunables.sched_wakeup_granularity

    def create_queue(self) -> CFSQueue:
        return CFSQueue()

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------
    def enqueue_task(self, rq: "RunQueue", task: "Task") -> None:
        q = rq.class_queues[self.name]
        # The double-enqueue guard scans the timeline, which is short
        # (see the module docstring); a pid -> entry dict would cost a
        # store per enqueue and a delete per pick instead.
        for entry in q.timeline:
            if entry[2] is task:
                raise ValueError(f"{task!r} double-enqueued in CFS")
        q.insert(task)
        self._update_min_vruntime(rq)

    def pick_next_task(self, rq: "RunQueue") -> Optional["Task"]:
        q = rq.class_queues.get(self.name)
        if q is None or not q.timeline:
            return None
        task = q.timeline.pop(0)[2]
        q.total_weight -= nice_to_weight(task.nice)
        return task

    def nr_queued(self, rq: "RunQueue") -> int:
        q = rq.class_queues.get(self.name)
        return 0 if q is None else len(q.timeline)

    # ------------------------------------------------------------------
    # Accounting & preemption
    # ------------------------------------------------------------------
    def account(self, rq: "RunQueue", task: "Task", delta: float) -> None:
        task.vruntime += delta * NICE_0_LOAD / nice_to_weight(task.nice)
        oracles = self.kernel.oracles
        if oracles is not None:
            oracles.on_vruntime(task)
        self._update_min_vruntime(rq)

    def on_wakeup(self, task: "Task") -> None:
        # place_entity(): a long sleeper must not starve the queue by
        # returning with an ancient vruntime, nor get punished for having
        # slept — give it min_vruntime minus one latency period of credit.
        pass  # placement happens in task_placed() once the CPU is known

    def task_placed(self, rq: "RunQueue", task: "Task") -> None:
        """Normalize a woken/new task's vruntime against this queue's
        ``min_vruntime`` floor."""
        q = rq.class_queues[self.name]
        floor = q.min_vruntime - self._latency
        if task.vruntime < floor:
            task.vruntime = floor
        oracles = self.kernel.oracles
        if oracles is not None:
            oracles.on_vruntime_placed(task)

    def task_tick(self, rq: "RunQueue", task: "Task") -> None:
        if self.nr_queued(rq) == 0:
            return
        now = self.kernel.sim.now
        ran = now - rq.curr_switched_in_at
        if ran >= self._ideal_slice(rq, task):
            self.kernel.resched(rq.cpu)
            return
        # Even within the slice, a sufficiently starved leftmost task
        # preempts once the minimum granularity has elapsed.
        q = rq.class_queues[self.name]
        left = q.leftmost()
        min_gran = self._min_gran
        if left is not None and ran >= min_gran and left.vruntime < task.vruntime:
            self.kernel.resched(rq.cpu)

    def check_preempt(self, rq: "RunQueue", woken: "Task") -> bool:
        cur = rq.current
        if cur is None:
            return True
        vgran = self._wakeup_gran * NICE_0_LOAD / nice_to_weight(woken.nice)
        return woken.vruntime + vgran < cur.vruntime

    def put_prev_task(self, rq: "RunQueue", task: "Task") -> None:
        # The task returns to the timeline via the core's enqueue path.
        pass

    # ------------------------------------------------------------------
    def _ideal_slice(self, rq: "RunQueue", task: "Task") -> float:
        latency = self._latency
        min_gran = self._min_gran
        q = rq.class_queues[self.name]
        w = nice_to_weight(task.nice)
        total = q.total_weight + w
        if total <= 0:
            return latency
        return max(min_gran, latency * w / total)

    def _update_min_vruntime(self, rq: "RunQueue") -> None:
        q = rq.class_queues[self.name]
        # min/max of at most two values, spelled out with the builtins'
        # tie order (the first of equals wins): leftmost, then current.
        timeline = q.timeline
        low = timeline[0][2].vruntime if timeline else None
        cur = rq.current
        if cur is not None and cur.policy in self.policies:
            v = cur.vruntime
            if low is None or v < low:
                low = v
        if low is not None and low > q.min_vruntime:
            q.min_vruntime = low
        oracles = self.kernel.oracles
        if oracles is not None:
            oracles.on_min_vruntime(rq.cpu, q.min_vruntime)
