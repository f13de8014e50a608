"""Per-CPU run queue.

Each CPU owns one :class:`RunQueue`.  The queue holds, per scheduling
class, that class's private queue object (created lazily through
:meth:`SchedClass.create_queue`), plus the currently running task and
the tick/resched bookkeeping the scheduler core needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.sched_class import SchedClass
    from repro.kernel.task import Task
    from repro.simcore.events import Event


class RunQueue:
    """State of one logical CPU from the scheduler's point of view."""

    __slots__ = (
        "cpu", "current", "class_queues", "nr_queued", "need_resched",
        "resched_event", "tick_event", "curr_switched_in_at",
    )

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        #: Currently running task (None only transiently; the idle task
        #: occupies the CPU when nothing else is runnable).
        self.current: Optional["Task"] = None
        #: Class-private queues, keyed by class name.
        self.class_queues: Dict[str, Any] = {}
        #: Number of queued (not running) tasks across all classes.
        self.nr_queued = 0
        self.need_resched = False
        #: This CPU's live entry in the reschedule batch (dedup guard).
        self.resched_event: Optional[tuple] = None
        #: Pending tick event.
        self.tick_event: Optional["Event"] = None
        #: Time the current task was switched in (for slice accounting).
        self.curr_switched_in_at: float = 0.0

    def queue_for(self, sched_class: "SchedClass") -> Any:
        """This CPU's private queue object of ``sched_class`` (created
        lazily through the class's ``create_queue``)."""
        q = self.class_queues.get(sched_class.name)
        if q is None:
            q = sched_class.create_queue()
            self.class_queues[sched_class.name] = q
        return q

    @property
    def nr_running(self) -> int:
        """Queued tasks plus the running one (idle task excluded)."""
        running = 1 if self.current is not None and not (
            self.current.is_idle_task
        ) else 0
        return self.nr_queued + running

    def __repr__(self) -> str:  # pragma: no cover
        cur = self.current.name if self.current else None
        return f"<RunQueue cpu{self.cpu} current={cur!r} queued={self.nr_queued}>"
