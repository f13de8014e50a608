"""The real-time scheduling class (SCHED_FIFO / SCHED_RR).

A set of round-robin run-queue lists, one per real-time priority — the
old O(1) algorithm preserved inside the new framework (paper §III).  We
use POSIX semantics directly: larger ``rt_priority`` wins.  FIFO tasks
run until they block or yield; RR tasks are moved to the back of their
priority list when their time slice expires.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.kernel.policies import RT_POLICIES, SchedPolicy
from repro.kernel.sched_class import SchedClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.runqueue import RunQueue
    from repro.kernel.task import Task


class RTQueue:
    """Priority array: rt_priority -> FIFO list of runnable tasks."""

    __slots__ = ("lists", "count")

    def __init__(self) -> None:
        self.lists: Dict[int, Deque["Task"]] = {}
        self.count = 0

    def push(self, task: "Task", front: bool = False) -> None:
        """Queue a task on its priority list (tail, or head for a
        preempted task resuming its turn)."""
        lst = self.lists.get(task.rt_priority)
        if lst is None:
            lst = deque()
            self.lists[task.rt_priority] = lst
        if front:
            lst.appendleft(task)
        else:
            lst.append(task)
        self.count += 1

    def remove(self, task: "Task") -> None:
        """Unqueue a specific task (raises if absent)."""
        lst = self.lists.get(task.rt_priority)
        if lst is None or task not in lst:
            raise ValueError(f"{task!r} not queued in RT class")
        lst.remove(task)
        self.count -= 1
        if not lst:
            del self.lists[task.rt_priority]

    def pop_best(self) -> Optional["Task"]:
        """Dequeue the head of the highest non-empty priority list."""
        if not self.lists:
            return None
        best = max(self.lists)
        lst = self.lists[best]
        task = lst.popleft()
        self.count -= 1
        if not lst:
            del self.lists[best]
        return task

    def best_priority(self) -> Optional[int]:
        """Highest priority with waiters, or None when empty."""
        return max(self.lists) if self.lists else None


class RTClass(SchedClass):
    """Highest-priority scheduling class."""

    name = "rt"
    policies = RT_POLICIES

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        kernel.tunables.subscribe(self._refresh_tunable_cache)

    def _refresh_tunable_cache(self) -> None:
        """Cache the RR slice / tick knobs read on every pick and tick."""
        get = self.kernel.tunables.get
        self._rr_timeslice = get("kernel/sched_rr_timeslice")
        self._tick_period = get("kernel/tick_period")

    def create_queue(self) -> RTQueue:
        return RTQueue()

    def enqueue_task(self, rq: "RunQueue", task: "Task") -> None:
        # A preempted FIFO/RR task that did not exhaust its turn goes back
        # to the *head* of its priority list (it only lost the CPU to a
        # higher-priority task).
        head = task._rt_requeue_head
        task._rt_requeue_head = False
        rq.queue_for(self).push(task, front=head)

    def dequeue_task(self, rq: "RunQueue", task: "Task") -> None:
        rq.queue_for(self).remove(task)

    def pick_next_task(self, rq: "RunQueue") -> Optional["Task"]:
        task = rq.queue_for(self).pop_best()
        if task is not None and task.policy == SchedPolicy.RR:
            if task.rr_slice_left <= 0.0:
                task.rr_slice_left = self._rr_timeslice
        return task

    def nr_queued(self, rq: "RunQueue") -> int:
        return rq.queue_for(self).count

    def task_tick(self, rq: "RunQueue", task: "Task") -> None:
        if task.policy != SchedPolicy.RR:
            return  # FIFO: no slice, runs until it blocks or yields
        task.rr_slice_left -= self._tick_period
        if task.rr_slice_left > 0.0:
            return
        task.rr_slice_left = self._rr_timeslice
        # Round-robin only matters if a peer of the same priority waits.
        q = rq.queue_for(self)
        if q.best_priority() is not None and q.best_priority() >= task.rt_priority:
            self.kernel.resched(rq.cpu)

    def check_preempt(self, rq: "RunQueue", woken: "Task") -> bool:
        cur = rq.current
        return cur is not None and woken.rt_priority > cur.rt_priority

    def needs_tick(self, rq: "RunQueue", task: "Task") -> bool:
        if task.policy != SchedPolicy.RR:
            return False
        best = rq.queue_for(self).best_priority()
        return best is not None and best >= task.rt_priority

    def put_prev_task(self, rq: "RunQueue", task: "Task") -> None:
        yielded = task._sched_yield
        task._sched_yield = False
        if yielded:
            return  # sched_yield: go to the tail of the priority list
        if task.policy == SchedPolicy.FIFO or task.rr_slice_left > 0.0:
            task._rt_requeue_head = True

    def pull_candidates(self, rq: "RunQueue") -> List["Task"]:
        # Lowest-priority queued RT tasks are cheapest to migrate.
        q = rq.queue_for(self)
        out: List["Task"] = []
        for prio in sorted(q.lists):
            out.extend(q.lists[prio])
        return out
