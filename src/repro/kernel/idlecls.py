"""The idle scheduling class: last resort, never empty.

Each CPU owns one idle task; the scheduler core falls through to this
class when every other class is empty, so "the scheduler cannot fail in
its search" (paper §III).  Running the idle task parks the hardware
context at snooze priority, putting the core in single-thread mode for
its sibling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.kernel.policies import SchedPolicy
from repro.kernel.sched_class import SchedClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.runqueue import RunQueue
    from repro.kernel.task import Task


class IdleClass(SchedClass):
    """Lowest-priority scheduling class holding the per-CPU idle tasks."""

    name = "idle"
    policies = frozenset({SchedPolicy.IDLE})

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        self.idle_tasks: Dict[int, "Task"] = {}

    def register_idle_task(self, cpu: int, task: "Task") -> None:
        """Install ``task`` as the per-CPU idle task (boot time)."""
        task.is_idle_task = True
        self.idle_tasks[cpu] = task

    def create_queue(self) -> None:
        return None

    def enqueue_task(self, rq: "RunQueue", task: "Task") -> None:
        raise RuntimeError("the idle task is never enqueued")

    def dequeue_task(self, rq: "RunQueue", task: "Task") -> None:
        raise RuntimeError("the idle task is never dequeued")

    def pick_next_task(self, rq: "RunQueue") -> Optional["Task"]:
        return self.idle_tasks.get(rq.cpu)

    def nr_queued(self, rq: "RunQueue") -> int:
        return 0

    def needs_tick(self, rq: "RunQueue", task: "Task") -> bool:
        return False
