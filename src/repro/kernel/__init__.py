"""Simulated Linux 2.6.24-era scheduler framework.

This package rebuilds, at simulation fidelity, the pieces of the Linux
scheduler the paper's HPCSched is defined against (paper §III):

* a **Scheduler Core** (:mod:`repro.kernel.core_sched`) that walks an
  ordered list of *Scheduling Classes* and always finds a runnable task,
* the **real-time class** (:mod:`repro.kernel.rt`): 100 FIFO/RR priority
  queues, the old O(1)-style algorithm,
* the **CFS class** (:mod:`repro.kernel.fair`): a timeline (sorted list)
  keyed by virtual runtime, nice-weight table, sched_latency /
  min_granularity / wakeup_granularity semantics,
* the **idle class** (:mod:`repro.kernel.idlecls`),
* per-CPU run queues (a task runs on the CPU it was started on: there
  is no load balancer and no migration), a tickless (NOHZ-style) timer
  tick, per-task wakeup-latency accounting and the frozen per-run
  :class:`~repro.kernel.tunables.Tunables` record.

Tasks are Python generators yielding request objects (compute, sleep,
MPI operations, sched_setscheduler, ...); the kernel drives them exactly
like the real kernel drives user processes through the syscall boundary.
"""

from repro.kernel.policies import SchedPolicy, TaskState
from repro.kernel.task import Task
from repro.kernel.core_sched import Kernel
from repro.kernel.tunables import Tunables
from repro.kernel.syscalls import (
    Compute,
    Sleep,
    SetScheduler,
    Exit,
)

__all__ = [
    "SchedPolicy",
    "TaskState",
    "Task",
    "Kernel",
    "Tunables",
    "Compute",
    "Sleep",
    "SetScheduler",
    "Exit",
]
