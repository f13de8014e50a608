"""The simulated task descriptor (``struct task_struct``).

A task's behaviour is a Python generator yielding request objects
(:mod:`repro.kernel.syscalls`, MPI operations from :mod:`repro.mpi`).
The kernel drives the generator; a ``Compute`` request turns into a
fluid-rate execution phase on a POWER5 context, blocking requests put
the task to sleep until the owning subsystem wakes it.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional, Set

from repro.kernel.policies import (
    NICE_MAX,
    NICE_MIN,
    SchedPolicy,
    TaskState,
)
from repro.power5.perfmodel import CPU_BOUND, PerfProfile
from repro.power5.priorities import DEFAULT_PRIORITY


class Task:
    """A schedulable entity."""

    # Slotted: a cluster holds one Task per rank, and a per-instance
    # ``__dict__`` would be a third of its heap.
    __slots__ = (
        "pid", "name", "program", "policy", "nice", "rt_priority",
        "perf_profile", "cpus_allowed", "state", "cpu", "hw_priority",
        "phase_label", "sum_exec_runtime", "exec_start", "vruntime",
        "rr_slice_left", "last_enqueue_time", "wakeup_pending", "daemon",
        "_sched_yield", "sleep_reason", "sleeping_on_wait", "phase_remaining",
        "phase_rate", "phase_started_at", "phase_event", "phase_epoch",
        "phase_eta", "_syscall_result", "class_data", "on_exit",
        "sched_class", "is_idle_task", "_rt_requeue_head",
    )

    def __init__(
        self,
        pid: int,
        name: str,
        program: Optional[Generator] = None,
        policy: SchedPolicy = SchedPolicy.NORMAL,
        nice: int = 0,
        rt_priority: int = 0,
        perf_profile: PerfProfile = CPU_BOUND,
        cpus_allowed: Optional[Iterable[int]] = None,
    ) -> None:
        if not NICE_MIN <= nice <= NICE_MAX:
            raise ValueError(f"nice {nice} out of range")
        self.pid = pid
        self.name = name
        self.program = program
        self.policy = policy
        self.nice = nice
        self.rt_priority = rt_priority
        self.perf_profile = perf_profile
        self.cpus_allowed: Optional[Set[int]] = (
            set(cpus_allowed) if cpus_allowed is not None else None
        )

        self.state = TaskState.NEW
        #: Scheduling class, set when the task starts.
        self.sched_class: Any = None
        #: True only on the per-CPU idle tasks.
        self.is_idle_task = False
        #: CPU the task last ran on / is queued on.
        self.cpu: Optional[int] = None
        #: POWER5 hardware thread priority restored on context switch.
        self.hw_priority: int = int(DEFAULT_PRIORITY)
        #: Pre-formatted label for phase-completion events (the kernel
        #: schedules one per compute phase; formatting it per event is
        #: measurable on the hot path).
        self.phase_label = f"phase/{pid}"

        # -- accounting ------------------------------------------------
        #: Total CPU time consumed (seconds of occupancy, regardless of
        #: the SMT execution rate).
        self.sum_exec_runtime = 0.0
        #: Wall-clock instant the current on-CPU stint started.
        self.exec_start: Optional[float] = None
        #: CFS virtual runtime.
        self.vruntime = 0.0
        #: Remaining round-robin slice (RT RR and HPC RR policies).
        self.rr_slice_left = 0.0

        # -- wakeup / latency -----------------------------------------
        self.last_enqueue_time: Optional[float] = None
        #: Set between a wakeup and the next install (latency tracking).
        self.wakeup_pending = False
        #: Excluded from the live-task stop condition when True.
        self.daemon = False
        #: sched_yield marker consumed by RT put_prev_task.
        self._sched_yield = False
        #: Set by RT put_prev_task: requeue at the head of the list.
        self._rt_requeue_head = False
        self.sleep_reason: Optional[str] = None
        #: Set when the task blocked on an MPI wait (iteration boundary
        #: marker for the HPC load-imbalance detector).
        self.sleeping_on_wait = False

        # -- current execution phase (fluid compute model) -------------
        self.phase_remaining = 0.0  # work units left in the phase
        self.phase_rate = 0.0  # current work-units/second
        self.phase_started_at: Optional[float] = None
        self.phase_event: Optional[Any] = None  # completion Event handle
        #: Generation counter for lazy ETA revalidation: bumped whenever
        #: the authoritative completion time changes.  Each completion
        #: event carries the epoch it was pushed under; on delivery a
        #: mismatch means the ETA moved later while the event rode in
        #: the heap, and the handler re-pushes at :attr:`phase_eta`.
        self.phase_epoch = 0
        #: Authoritative completion instant of the in-flight phase
        #: (``None`` when no completion is owed, e.g. stalled at rate 0).
        self.phase_eta: Optional[float] = None

        #: Value delivered to the program at its next resume (the result
        #: of the request it yielded, e.g. a received message payload).
        self._syscall_result: Any = None
        #: Opaque per-class state (e.g. HPC iteration statistics).
        self.class_data: Any = None
        #: Callback invoked when the task exits, e.g. for join semantics.
        self.on_exit: Optional[Callable[["Task"], None]] = None

    # ------------------------------------------------------------------
    # Convenience predicates
    # ------------------------------------------------------------------
    @property
    def runnable(self) -> bool:
        return self.state in (TaskState.READY, TaskState.RUNNING)

    @property
    def alive(self) -> bool:
        return self.state != TaskState.EXITED

    def allows_cpu(self, cpu: int) -> bool:
        """Whether the affinity mask permits running on ``cpu``."""
        return self.cpus_allowed is None or cpu in self.cpus_allowed

    # ------------------------------------------------------------------
    # Phase bookkeeping helpers (used by the kernel core)
    # ------------------------------------------------------------------
    def bank_progress(self, now: float) -> None:
        """Credit work done since ``phase_started_at`` at ``phase_rate``
        against the current compute phase."""
        if self.phase_started_at is not None and self.phase_rate > 0.0:
            # The phase may have been scheduled to start slightly in the
            # future (context-switch cost); no work accrues before then.
            done = max(0.0, (now - self.phase_started_at) * self.phase_rate)
            self.phase_remaining = max(0.0, self.phase_remaining - done)
        self.phase_started_at = None
        self.phase_rate = 0.0

    def cancel_phase_event(self) -> None:
        """Drop the pending phase-completion event, if any, and with it
        the owed completion time."""
        if self.phase_event is not None:
            self.phase_event.cancel()
            self.phase_event = None
        self.phase_eta = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Task {self.pid} {self.name!r} {self.policy.name} "
            f"{self.state.value} cpu={self.cpu} hw={self.hw_priority}>"
        )
