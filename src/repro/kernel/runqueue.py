"""Per-CPU run queue.

Each CPU owns one :class:`RunQueue`.  The queue holds, per scheduling
class, that class's private queue object (built on first use through
:meth:`SchedClass.create_queue`), plus the currently running task and
the tick/resched bookkeeping the scheduler core needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.sched_class import SchedClass
    from repro.kernel.task import Task
    from repro.simcore.events import Event


class ClassQueues(dict):
    """A CPU's class-private queues, keyed by class name.

    Indexing the name of a class that has no queue here yet builds one
    through that class's ``create_queue``, so the classes' hot paths
    index the dict directly, with no accessor call, while a class never
    used on a CPU allocates nothing there.  ``get`` reads without
    building.  ``classes`` is the kernel's own class list, shared by
    all its CPUs."""

    __slots__ = ("classes",)

    def __init__(self, classes: List["SchedClass"]) -> None:
        super().__init__()
        self.classes = classes

    def __missing__(self, name: str) -> Any:
        for cls in self.classes:
            if cls.name == name:
                q = self[name] = cls.create_queue()
                return q
        raise KeyError(name)


class RunQueue:
    """State of one logical CPU from the scheduler's point of view."""

    __slots__ = (
        "cpu", "current", "class_queues", "nr_queued", "need_resched",
        "resched_event", "tick_event", "curr_switched_in_at",
    )

    def __init__(self, cpu: int, classes: List["SchedClass"]) -> None:
        self.cpu = cpu
        #: Currently running task (None only transiently; the idle task
        #: occupies the CPU when nothing else is runnable).
        self.current: Optional["Task"] = None
        #: Class-private queues, keyed by class name.
        self.class_queues = ClassQueues(classes)
        #: Number of queued (not running) tasks across all classes.
        self.nr_queued = 0
        self.need_resched = False
        #: This CPU's live entry in the reschedule batch (dedup guard).
        self.resched_event: Optional[tuple] = None
        #: Pending tick event.
        self.tick_event: Optional["Event"] = None
        #: Time the current task was switched in (for slice accounting).
        self.curr_switched_in_at: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        cur = self.current.name if self.current else None
        return f"<RunQueue cpu{self.cpu} current={cur!r} queued={self.nr_queued}>"
