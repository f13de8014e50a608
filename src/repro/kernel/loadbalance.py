"""Workload balancing across CPUs and domains.

Two triggers, as in the kernel (paper §IV-A): an **idle pull** when a
CPU is about to run its idle task, and a **periodic** check per CPU.
Balancing walks the domain hierarchy innermost-first and equalizes the
number of runnable tasks across the groups of each level, pulling from
the busiest eligible CPU.  Classes expose migration candidates through
:meth:`SchedClass.pull_candidates`.

The periodic check runs on one balance timer per CPU, owned here
(DESIGN §12).  A timer fires every ``interval`` seconds until the
kernel has no live task left, and a fire that can move nothing is
skipped: while the kernel's census holds — nothing queued anywhere, or
no migratable task — a timer is *parked* (no queued event, only its
next fire instant kept).  The kernel calls :meth:`unpark` on each edge
that can break the census, and the walk re-arms each parked timer at
the instant its always-armed twin would fire next, bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.kernel.domains import hierarchy_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core_sched import Kernel
    from repro.kernel.task import Task
    from repro.simcore.events import Event

#: Event priority of a balance fire: the kernel's last at its instant
#: (after the reschedules), so a round sees the final run queues.
EVPRIO_BALANCE = 6


class LoadBalancer:
    """Idle-pull + periodic task-count balancer, with its timers."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.hierarchy = hierarchy_for(kernel.machine)
        #: Timer period.
        self.interval = kernel.tunables.loadbalance_interval
        #: Per CPU index: the timer's next fire instant (the armed
        #: event's time, or where a parked timer would fire next), or
        #: ``None`` once the timer died.  Empty until :meth:`start`.
        self.next_fire: List[Optional[float]] = []
        #: Per CPU index: the queued fire event, or ``None`` while the
        #: timer is parked (or dead).
        self.events: List[Optional["Event"]] = []
        #: Timers parked now.
        self.parked = 0
        #: Instant the kernel's last live task exited while timers were
        #: parked; ``None`` while alive.  An always-armed timer whose
        #: fire falls at or after it dies there, so the walk kills a
        #: parked timer on such a point.
        self.dead_at: Optional[float] = None
        #: Fires skipped by the walk.
        self.elided = 0

    # ------------------------------------------------------------------
    # CPU selection for new / woken tasks
    # ------------------------------------------------------------------
    def select_cpu(self, task: "Task", prefer: Optional[int] = None) -> int:
        """Pick the CPU with the fewest runnable tasks among the allowed
        ones, preferring topological proximity to ``prefer`` on ties."""
        kernel = self.kernel
        allowed = [c for c in kernel.machine.cpu_ids if task.allows_cpu(c)]
        if not allowed:
            raise ValueError(f"{task!r} has an empty CPU mask")
        if prefer is not None and prefer in allowed:
            if kernel.rqs[prefer].nr_running == 0:
                return prefer

        def key(cpu: int):
            load = kernel.rqs[cpu].nr_running
            dist = (
                self.hierarchy.distance(prefer, cpu) if prefer is not None else 0
            )
            return (load, dist, cpu)

        return min(allowed, key=key)

    # ------------------------------------------------------------------
    # Pulling
    # ------------------------------------------------------------------
    def idle_pull(self, cpu: int) -> Optional["Task"]:
        """A CPU is going idle: steal one queued task from the busiest
        peer, nearest domain first.  Returns the migrated task (already
        enqueued on ``cpu``) or None."""
        return self._pull(cpu, min_imbalance=1)

    def periodic(self, cpu: int) -> Optional["Task"]:
        """Periodic balance: pull only when the imbalance is real (the
        busiest peer has at least 2 more runnable tasks)."""
        return self._pull(cpu, min_imbalance=2)

    def _pull(self, cpu: int, min_imbalance: int) -> Optional["Task"]:
        kernel = self.kernel
        my_load = kernel.rqs[cpu].nr_running
        for dom in self.hierarchy.for_cpu(cpu):
            busiest = None
            busiest_load = my_load
            for peer in dom.cpus:
                if peer == cpu:
                    continue
                load = kernel.rqs[peer].nr_running
                if load > busiest_load:
                    busiest = peer
                    busiest_load = load
            if busiest is None or busiest_load - my_load < min_imbalance:
                continue
            if busiest_load < 2:
                # Never strip a CPU of its only runnable task: it is
                # about to run there (a pending reschedule will pick it).
                continue
            task = self._steal(busiest, cpu)
            if task is not None:
                return task
        return None

    def _steal(self, src: int, dst: int) -> Optional["Task"]:
        kernel = self.kernel
        src_rq = kernel.rqs[src]
        for sched_class in kernel.classes:
            for task in sched_class.pull_candidates(src_rq):
                if task.allows_cpu(dst):
                    kernel.migrate(task, dst)
                    return task
        return None

    # ------------------------------------------------------------------
    # Balance timers
    # ------------------------------------------------------------------
    def _inert(self) -> bool:
        """The census: with nothing queued there is nothing to pull, and
        with no migratable task ``_steal`` can move nothing, so a fire
        would only re-arm."""
        kernel = self.kernel
        return kernel._queued_total == 0 or kernel._migratable == 0

    def start(self) -> None:
        """Start the timers at the kernel's first task start: CPU ``i``
        of ``n`` first fires ``interval * (i + 1) / (n + 1)`` from now.
        With ``Kernel.fastforward`` on, timers born under the census are
        parked and never touch the queue."""
        if self.next_fire:
            return
        kernel = self.kernel
        now = kernel.sim.now
        interval = self.interval
        n = len(kernel.machine.cpu_ids)
        self.next_fire = [now + interval * (i + 1) / (n + 1) for i in range(n)]
        self.events = [None] * n
        if kernel.fastforward and self._inert():
            self.parked = n
        else:
            for i in range(n):
                self._arm(i)

    def _arm(self, i: int) -> None:
        cpu = self.kernel.machine.cpu_ids[i]
        self.events[i] = self.kernel.sim.at(
            self.next_fire[i], lambda: self._fire(i), EVPRIO_BALANCE,
            f"balance/{cpu}",
        )

    def _fire(self, i: int) -> None:
        """One balance fire of CPU index ``i``, for both settings of
        ``Kernel.fastforward``."""
        kernel = self.kernel
        self.events[i] = None
        if kernel.live_tasks <= 0:
            self.next_fire[i] = None  # quiesce: no work left, stop
            return
        if kernel._queued_total:
            self.periodic(kernel.machine.cpu_ids[i])
        self.next_fire[i] = kernel.sim.now + self.interval
        if kernel.fastforward and self._inert():
            self.parked += 1
        else:
            self._arm(i)

    def _walk(self, i: int, until: float, through: bool) -> bool:
        """Advance parked timer ``i`` over the fires its always-armed
        twin made before ``until`` (and at ``until`` too when
        ``through``), by the same ``t += interval`` float accumulation,
        so the instant reached is bit-identical.  A fire at or after
        ``dead_at`` is where the twin died: the timer dies there too
        and the walk returns False."""
        t = self.next_fire[i]
        interval = self.interval
        dead_at = self.dead_at
        n = 0
        while t < until or (through and t == until):
            if dead_at is not None and t >= dead_at:
                self.next_fire[i] = None
                self.parked -= 1
                return False
            t += interval
            n += 1
        self.next_fire[i] = t
        self.elided += n
        return True

    def _parked_timers(self) -> List[int]:
        events = self.events
        return [
            i for i, t in enumerate(self.next_fire)
            if t is not None and events[i] is None
        ]

    def unpark(self) -> None:
        """Re-arm every parked timer once the census no longer holds.

        The kernel calls this inside the event that broke the census.
        A fire due exactly now is ordered by priority, as same-instant
        delivery would order it: if the balance fire sorts before the
        current event, it ran already and saw the census hold, so the
        walk steps past it; otherwise the timer re-arms at now."""
        if not self.parked or self._inert():
            return
        sim = self.kernel.sim
        now = sim.now
        prio = sim.cur_event_prio
        through = prio is not None and EVPRIO_BALANCE < prio
        for i in self._parked_timers():
            if self._walk(i, now, through):
                self.parked -= 1
                self._arm(i)

    def mark_dead(self) -> None:
        """The kernel's last live task exited: record the instant for
        the parked timers, which cannot observe it at a fire (the first
        death wins until :meth:`revive`)."""
        if self.parked and self.dead_at is None:
            self.dead_at = self.kernel.sim.now

    def revive(self) -> None:
        """A task went live again: kill the parked timers whose next
        fire fell in the dead window, and walk the others past it."""
        if self.dead_at is None:
            return
        now = self.kernel.sim.now
        for i in self._parked_timers():
            self._walk(i, now, False)
        self.dead_at = None
