"""The architecture-dependent mechanism layer (paper §IV-C).

The scheduling policy and the heuristics are architecture-neutral; only
the functions that read and program the hardware thread priority touch
the processor.  :class:`POWER5Mechanism` drives the simulated POWER5's
per-context priority (at supervisor privilege, so the full [1, 6] range
of Table II is reachable); :class:`NullMechanism` is the fallback for
processors without software-controlled prioritization — HPCSched still
delivers its scheduling-latency benefits there, it just cannot balance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.power5.priorities import (
    PrivilegeLevel,
    PriorityError,
    can_set_priority,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core_sched import Kernel
    from repro.kernel.task import Task


class PriorityMechanism(ABC):
    """Reads/writes a task's hardware thread priority."""

    @abstractmethod
    def apply(self, kernel: "Kernel", task: "Task", priority: int) -> None:
        """Program ``priority`` for ``task`` (now if running, otherwise
        at its next context switch)."""

    def read(self, task: "Task") -> int:
        """Current hardware priority associated with ``task``."""
        return task.hw_priority


class POWER5Mechanism(PriorityMechanism):
    """Issues the (simulated) ``or X,X,X`` priority nops at supervisor
    privilege, exactly like the in-kernel HPCSched would."""

    privilege = PrivilegeLevel.SUPERVISOR

    def apply(self, kernel: "Kernel", task: "Task", priority: int) -> None:
        if not can_set_priority(priority, self.privilege):
            raise PriorityError(
                f"HPCSched (supervisor) cannot set priority {priority}"
            )
        kernel.set_hw_priority(task, priority, privilege=self.privilege)


class NullMechanism(PriorityMechanism):
    """No hardware prioritization available: priorities are recorded on
    the task descriptor but have no performance effect."""

    def apply(self, kernel: "Kernel", task: "Task", priority: int) -> None:
        # Record only; never touch the context, never change rates.
        task.hw_priority = int(priority)
