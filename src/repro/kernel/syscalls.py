"""Request objects a task program may yield to the kernel.

A program is a generator::

    def program(env):
        yield Compute(2.5)          # 2.5 work units
        yield Sleep(0.001)          # block for 1 ms
        yield SetScheduler(SchedPolicy.HPC)
        ...

``Compute`` is handled natively by the execution engine; every other
request implements :meth:`KernelRequest.execute`, returning ``True`` if
the task may continue immediately and ``False`` if it must block (the
issuing subsystem is then responsible for waking it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.kernel.policies import (
    NICE_MAX,
    NICE_MIN,
    RT_PRIO_MAX,
    RT_PRIO_MIN,
    RT_POLICIES,
    SchedPolicy,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core_sched import Kernel
    from repro.kernel.task import Task


class KernelRequest:
    """Base class for blocking/non-compute requests."""

    #: Marks requests that represent an MPI wait phase; the HPC
    #: load-imbalance detector treats wakeup from such a request as an
    #: iteration boundary (paper Fig. 2).
    is_wait = False

    def execute(self, kernel: "Kernel", task: "Task") -> bool:
        """Perform the request for ``task``.

        Returns ``True`` if the task may continue immediately, ``False``
        if it must block (the issuing subsystem is then responsible for
        waking it).  A request may deliver a result to the program's
        yield expression via ``task._syscall_result``.
        """
        raise NotImplementedError

    @property
    def sleep_reason(self) -> str:
        """Label recorded on the task while blocked on this request."""
        return type(self).__name__.lower()


class Compute:
    """Run on the CPU for ``work`` units.

    One work unit corresponds to one second of execution at the
    SMT-equal baseline speed; the actual wall time depends on the SMT
    state of the core the task lands on.
    """

    __slots__ = ("work",)

    def __init__(self, work: float) -> None:
        if not work >= 0:  # also rejects NaN
            raise ValueError(f"negative work {work}")
        self.work = work

    def __repr__(self) -> str:  # pragma: no cover
        return f"Compute({self.work})"


class Sleep(KernelRequest):
    """Block for a fixed amount of simulated time."""

    def __init__(self, duration: float) -> None:
        if not duration >= 0:  # also rejects NaN
            raise ValueError(f"negative sleep {duration}")
        self.duration = duration

    def execute(self, kernel: "Kernel", task: "Task") -> bool:
        if self.duration == 0.0:
            return True
        kernel.sim.after(self.duration, lambda: kernel.wake_up(task), label="sleep-end")
        return False


class SetScheduler(KernelRequest):
    """``sched_setscheduler()``: move the task to another policy/class.

    This is the *only* modification an application needs to opt into
    HPCSched (paper §IV-A).
    """

    def __init__(self, policy: SchedPolicy, rt_priority: int = 0) -> None:
        if policy in RT_POLICIES and not RT_PRIO_MIN <= rt_priority <= RT_PRIO_MAX:
            raise ValueError(f"rt_priority {rt_priority} out of range for {policy}")
        self.policy = policy
        self.rt_priority = rt_priority

    def execute(self, kernel: "Kernel", task: "Task") -> bool:
        kernel.sched_setscheduler(task, self.policy, self.rt_priority)
        return True


class SetNice(KernelRequest):
    """``nice()``: adjust the CFS weight of the calling task."""

    def __init__(self, nice: int) -> None:
        if not NICE_MIN <= nice <= NICE_MAX:
            raise ValueError(f"nice {nice} out of range")
        self.nice = nice

    def execute(self, kernel: "Kernel", task: "Task") -> bool:
        task.nice = self.nice
        return True


class SetAffinity(KernelRequest):
    """``sched_setaffinity()``: restrict the CPUs the task may use."""

    def __init__(self, cpus: Optional[Iterable[int]]) -> None:
        self.cpus = set(cpus) if cpus is not None else None

    def execute(self, kernel: "Kernel", task: "Task") -> bool:
        kernel.set_affinity(task, self.cpus)
        return True


class YieldCPU(KernelRequest):
    """``sched_yield()``: put the task at the back of its queue."""

    def execute(self, kernel: "Kernel", task: "Task") -> bool:
        kernel.yield_current(task)
        return True


class Exit(KernelRequest):
    """Terminate the task (equivalent to the program returning).

    Handled specially by the program driver in the kernel core; the
    ``execute`` method is never called.
    """

    def execute(self, kernel: "Kernel", task: "Task") -> bool:  # pragma: no cover
        raise AssertionError("Exit is handled by the program driver")
