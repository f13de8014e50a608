"""Runtime invariant oracles for the live simulation stack.

When the ``REPRO_VALIDATE=1`` environment flag is set (or a test calls
:func:`install` explicitly), a :class:`KernelOracles` instance rides
along with every :class:`~repro.kernel.core_sched.Kernel` and checks,
*while real experiments run*:

* **simcore** — the event clock never moves backwards, a cancelled
  event is never delivered, and the queue's O(1) live pending count
  (what ``len()`` reports) agrees with a scan of the buckets;
* **kernel core** — CPU-time conservation: the occupancy charged to
  tasks on a logical CPU never exceeds the wall-clock time that CPU has
  existed (and per-task ``sum_exec_runtime`` never exceeds ``now``);
  at run end, each task's banked state times agree with its charged
  occupancy and fit in the run, and its banked waiting time agrees
  with the sleeps the oracle timed itself at every wakeup, and the
  run queues agree with the tasks (:func:`consistency_check`);
  and every delivered phase completion lands on the eager-reschedule
  ETA — ``phase_started_at + phase_remaining / phase_rate`` — within
  tolerance, which pins the lazy ETA-revalidation fast path (ride +
  stale re-push, DESIGN §8) to the semantics of eagerly re-pushing on
  every rate change;
* **CFS** — a task's vruntime never decreases, and a queue's
  ``min_vruntime`` is monotonically non-decreasing;
* **hpcsched** — per-iteration utilizations observe ``0 <= U <= 1``,
  and the Load Imbalance Detector never applies a priority while FROZEN
  and never applies an *upward* change while OBSERVING (the legality
  rules of DESIGN §3's stable-state machine).

Production runs pay one ``is None`` attribute test per hook site; the
heavyweight bookkeeping exists only when validation is enabled.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.kernel.policies import TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.hpcsched.detector import LoadImbalanceDetector
    from repro.kernel.core_sched import Kernel
    from repro.kernel.task import Task
    from repro.simcore.events import Event

#: Environment flag that turns the oracles on for every new kernel.
ENV_FLAG = "REPRO_VALIDATE"

#: Slack for float accumulation in conservation sums.
_EPS = 1e-7


class InvariantViolation(AssertionError):
    """A runtime oracle caught the simulation breaking an invariant."""


def validation_enabled() -> bool:
    """Whether the ``REPRO_VALIDATE`` environment flag is set."""
    return os.environ.get(ENV_FLAG, "").strip() in ("1", "true", "yes", "on")


class KernelOracles:
    """Invariant bookkeeping attached to one kernel instance."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        #: cpu -> total occupancy charged to tasks on that CPU.
        self.cpu_busy: Dict[int, float] = {c: 0.0 for c in kernel.machine.cpu_ids}
        #: pid -> last observed vruntime.
        self._vruntime: Dict[int, float] = {}
        #: cpu -> last observed CFS min_vruntime.
        self._min_vruntime: Dict[int, float] = {}
        #: pid -> closed sleeps, timed by the oracle at each wakeup.
        self._waited: Dict[int, float] = {}
        self._last_event_time = 0.0
        self.checks = 0
        self.violations = 0

    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        self.violations += 1
        raise InvariantViolation(message)

    # -- simcore -------------------------------------------------------
    def on_event(self, event: "Event") -> None:
        """Fired by :meth:`Simulator.run` for every delivered event."""
        self.checks += 1
        if event.cancelled:
            self._fail(f"cancelled event delivered: {event!r}")
        if event.time < self._last_event_time - _EPS:
            self._fail(
                f"event clock moved backwards: {event!r} after "
                f"t={self._last_event_time}"
            )
        self._last_event_time = event.time
        # The O(1) live pending counter behind len(queue) must agree
        # with an O(n) bucket scan at every delivery boundary.
        tracked, actual = self.kernel.sim.queue.live_count_check()
        if tracked != actual:
            self._fail(
                f"event-queue live count out of sync: tracked {tracked}, "
                f"buckets hold {actual} pending events"
            )

    # -- kernel core ---------------------------------------------------
    def on_account(self, cpu: int, task: "Task", delta: float, now: float) -> None:
        """Fired by ``update_curr`` whenever occupancy is charged."""
        self.checks += 1
        if delta < 0:
            self._fail(f"negative occupancy delta {delta} for {task!r}")
        self.cpu_busy[cpu] = self.cpu_busy.get(cpu, 0.0) + delta
        if self.cpu_busy[cpu] > now + _EPS:
            self._fail(
                f"CPU-time conservation broken on cpu{cpu}: busy "
                f"{self.cpu_busy[cpu]:.9f}s > wall {now:.9f}s"
            )
        if task.sum_exec_runtime > now + _EPS:
            self._fail(
                f"{task!r} charged {task.sum_exec_runtime:.9f}s of CPU time "
                f"by wall {now:.9f}s"
            )

    def on_phase_complete(self, task: "Task", now: float) -> None:
        """Fired by ``_phase_complete`` just before a compute phase is
        retired, while its anchor (started-at, remaining, rate) is still
        intact.  The delivery instant must equal the ETA an eager
        reschedule would have computed from that anchor."""
        self.checks += 1
        if task.phase_started_at is None or task.phase_rate <= 0.0:
            self._fail(
                f"phase completion delivered for {task!r} without an "
                f"active anchor (started={task.phase_started_at!r}, "
                f"rate={task.phase_rate!r})"
            )
        eta = task.phase_started_at + task.phase_remaining / task.phase_rate
        if abs(eta - now) > _EPS:
            self._fail(
                f"phase of {task!r} completed at t={now!r} but the eager "
                f"reschedule ETA is {eta!r} (drift {abs(eta - now):.3e})"
            )

    def on_wake(self, task: "Task", now: float) -> None:
        """Fired by ``wake_up`` for a sleeping task, before it banks:
        the sleep ending now is the oracle's own record of the task's
        waiting time, independent of the wake site's banking."""
        self._waited[task.pid] = self._waited.get(task.pid, 0.0) + (
            now - task.state_since
        )

    def on_run_end(self, end: float) -> None:
        """Final conservation audit when the kernel run loop returns.
        A transition that forgets to bank a task's state time or to
        restamp ``state_since`` breaks one of the per-task checks: the
        block and exit sites bank the running sum, the install site the
        ready sum, and the wake site the waiting sum, which is checked
        against the sleeps :meth:`on_wake` timed."""
        for cpu, busy in self.cpu_busy.items():
            if busy > end + _EPS:
                self._fail(
                    f"cpu{cpu} accumulated {busy:.9f}s of occupancy in a "
                    f"{end:.9f}s run"
                )
        for task in self.kernel.tasks.values():
            running, ready, waiting = task.state_times(end)
            charged = task.sum_exec_runtime
            if task.state == TaskState.RUNNING:
                charged += end - task.exec_start
            if abs(running - charged) > _EPS:
                self._fail(f"{task!r} banked {running:.9f}s running, charged {charged:.9f}s")
            if running + ready + waiting > end + _EPS:
                self._fail(
                    f"{task!r} banked {running:.9f}s running + {ready:.9f}s ready"
                    f" + {waiting:.9f}s waiting in a {end:.9f}s run"
                )
            waited = self._waited.get(task.pid, 0.0)
            if task.state == TaskState.SLEEPING:
                waited += end - task.state_since
            if abs(waiting - waited) > _EPS:
                self._fail(f"{task!r} banked {waiting:.9f}s waiting, slept {waited:.9f}s")
        problems = consistency_check(self.kernel)
        if problems:
            self._fail("run-end kernel state inconsistent: " + "; ".join(problems))

    # -- CFS -----------------------------------------------------------
    def on_vruntime(self, task: "Task") -> None:
        """Fired after CFS accounting; vruntime must be monotonic."""
        self.checks += 1
        last = self._vruntime.get(task.pid)
        if last is not None and task.vruntime < last - _EPS:
            self._fail(
                f"vruntime of {task!r} went backwards: "
                f"{last:.9f} -> {task.vruntime:.9f}"
            )
        self._vruntime[task.pid] = task.vruntime

    def on_vruntime_placed(self, task: "Task") -> None:
        """Wake placement may legitimately *raise* a stale vruntime to
        the queue floor; re-baseline the monotonicity reference."""
        self._vruntime[task.pid] = task.vruntime

    def on_min_vruntime(self, cpu: int, value: float) -> None:
        """A CFS queue floor must be monotonically non-decreasing."""
        self.checks += 1
        last = self._min_vruntime.get(cpu)
        if last is not None and value < last - _EPS:
            self._fail(
                f"cfs min_vruntime on cpu{cpu} went backwards: "
                f"{last:.9f} -> {value:.9f}"
            )
        self._min_vruntime[cpu] = value

    # -- hpcsched ------------------------------------------------------
    def on_iteration(self, task: "Task", util: float) -> None:
        """A closed iteration's utilization must satisfy 0 <= U <= 1."""
        self.checks += 1
        if not -_EPS <= util <= 1.0 + _EPS:
            self._fail(f"iteration utilization {util!r} of {task!r} outside [0, 1]")

    def on_priority_apply(
        self, detector: "LoadImbalanceDetector", task: "Task", priority: int
    ) -> None:
        """Legality of a detector decision, checked *before* it lands."""
        self.checks += 1
        if detector.state == "frozen":
            self._fail(
                f"detector applied priority {priority} to {task!r} while FROZEN"
            )
        lo = self.kernel.tunables.min_prio
        hi = self.kernel.tunables.max_prio
        if not lo <= priority <= hi:
            self._fail(
                f"detector priority {priority} outside [{lo}, {hi}] for {task!r}"
            )
        if detector.state == "observing":
            current = detector.mechanism.read(task)
            if current is not None and priority > current:
                self._fail(
                    f"detector raised {task!r} to {priority} (from {current}) "
                    "while OBSERVING — only downward corrections are legal"
                )


def consistency_check(kernel: "Kernel") -> List[str]:
    """Cross-check the run queues against the tasks; returns the
    violations found (empty = healthy).  Safe at any instant between
    events: each CPU's current task is RUNNING there, each queue's
    ``nr_queued`` is the sum of its classes' counts, and every READY or
    RUNNING task sits on a CPU."""
    problems: List[str] = []
    for cpu in kernel.machine.cpu_ids:
        rq = kernel.rqs[cpu]
        cur = rq.current
        if cur is not None and not cur.is_idle_task:
            if cur.state != TaskState.RUNNING:
                problems.append(f"cpu{cpu}: current {cur.name} not RUNNING")
            if cur.cpu != cpu:
                problems.append(f"cpu{cpu}: current {cur.name} thinks cpu={cur.cpu}")
        queued = sum(cls.nr_queued(rq) for cls in kernel.classes)
        if queued != rq.nr_queued:
            problems.append(
                f"cpu{cpu}: nr_queued {rq.nr_queued} != class sum {queued}"
            )
    for t in kernel.tasks.values():
        if t.state == TaskState.READY and t.cpu is None:
            problems.append(f"task {t.name}: READY without a cpu")
        if t.state == TaskState.RUNNING:
            if t.cpu is None or kernel.rqs[t.cpu].current is not t:
                problems.append(f"task {t.name}: RUNNING but not current")
    return problems


def maybe_install(kernel: "Kernel") -> Optional[KernelOracles]:
    """Install oracles on ``kernel`` when the env flag asks for it."""
    if not validation_enabled():
        return None
    return install(kernel)


def install(kernel: "Kernel") -> KernelOracles:
    """Unconditionally attach a fresh oracle set to ``kernel`` and hook
    its simulator's event loop.  Nothing process-wide changes: the
    decode shares are checked once, when :mod:`repro.power5.decode` is
    imported."""
    oracles = KernelOracles(kernel)
    kernel.oracles = oracles
    kernel.sim.oracle = oracles
    return oracles
