"""The HPC scheduling class and SCHED_HPC policy (paper §IV-A).

Inserted between the real-time and the CFS class, so HPC tasks always
beat normal tasks to the CPU (that ordering alone is the source of the
scheduler-latency gains of §V-D).

Queueing is deliberately simple: with the expected one-HPC-task-per-CPU
workload a round-robin list matches an ordered timeline.  The class
always round-robins (slice ``Tunables.hpc_rr_timeslice``), which is the
policy the paper evaluates; the paper found FIFO indistinguishable from
it, so no FIFO mode is modelled.

The class also feeds the Load Imbalance Detector: blocking on an MPI
wait starts a wait phase, waking from one closes an iteration.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.hpcsched.detector import LoadImbalanceDetector
from repro.hpcsched.heuristics import Heuristic, UniformHeuristic
from repro.hpcsched.mechanism import PriorityMechanism
from repro.kernel.policies import HPC_POLICIES
from repro.kernel.sched_class import SchedClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core_sched import Kernel
    from repro.kernel.runqueue import RunQueue
    from repro.kernel.task import Task


class HPCQueue:
    """Per-CPU round-robin list of runnable HPC tasks."""

    __slots__ = ("tasks",)

    def __init__(self) -> None:
        self.tasks: Deque["Task"] = deque()


class HPCSchedClass(SchedClass):
    """The new scheduling class for SCHED_HPC tasks."""

    name = "hpc"
    policies = HPC_POLICIES

    def __init__(
        self,
        kernel: "Kernel",
        heuristic: Optional[Heuristic] = None,
        mechanism: Optional[PriorityMechanism] = None,
    ) -> None:
        super().__init__(kernel)
        self.detector = LoadImbalanceDetector(
            kernel, heuristic or UniformHeuristic(), mechanism
        )
        self._rr_timeslice = kernel.tunables.hpc_rr_timeslice
        self._tick_period = kernel.tunables.tick_period

    # ------------------------------------------------------------------
    # Queueing discipline
    # ------------------------------------------------------------------
    def create_queue(self) -> HPCQueue:
        return HPCQueue()

    def enqueue_task(self, rq: "RunQueue", task: "Task") -> None:
        rq.class_queues[self.name].tasks.append(task)

    def pick_next_task(self, rq: "RunQueue") -> Optional["Task"]:
        q = rq.class_queues.get(self.name)
        if q is None or not q.tasks:
            return None
        task = q.tasks.popleft()
        if task.rr_slice_left <= 0.0:
            task.rr_slice_left = self._rr_timeslice
        return task

    def nr_queued(self, rq: "RunQueue") -> int:
        q = rq.class_queues.get(self.name)
        return 0 if q is None else len(q.tasks)

    # ------------------------------------------------------------------
    # Tick / preemption
    # ------------------------------------------------------------------
    def task_tick(self, rq: "RunQueue", task: "Task") -> None:
        task.rr_slice_left -= self._tick_period
        if task.rr_slice_left > 0.0:
            return
        task.rr_slice_left = self._rr_timeslice
        if self.nr_queued(rq) > 0:
            self.kernel.resched(rq.cpu)

    def check_preempt(self, rq: "RunQueue", woken: "Task") -> bool:
        # No wakeup preemption inside the class: a woken HPC task waits
        # for the running HPC task's turn (round-robin fairness).  The
        # class *order* already handles preemption of CFS tasks.
        return False

    def needs_tick(self, rq: "RunQueue", task: "Task") -> bool:
        q = rq.class_queues.get(self.name)
        return q is not None and len(q.tasks) > 0

    # ------------------------------------------------------------------
    # Detector integration
    # ------------------------------------------------------------------
    def task_new(self, rq: "RunQueue", task: "Task") -> None:
        self.detector.task_added(task)

    def task_exit(self, rq: "RunQueue", task: "Task") -> None:
        self.detector.task_removed(task)

    def on_block(self, rq: "RunQueue", task: "Task", reason: str, is_wait: bool) -> None:
        # The wait phase begins; nothing to compute until the wakeup.
        pass

    def on_wakeup(self, task: "Task") -> None:
        if task.sleeping_on_wait:
            self.detector.on_wait_wakeup(task)


def attach_hpcsched(
    kernel: "Kernel",
    heuristic: Optional[Heuristic] = None,
    mechanism: Optional[PriorityMechanism] = None,
) -> HPCSchedClass:
    """Register the HPC class on ``kernel`` between RT and CFS
    (paper Fig. 1b) and return it."""
    cls = HPCSchedClass(kernel, heuristic, mechanism)
    kernel.register_class(cls)
    return cls
