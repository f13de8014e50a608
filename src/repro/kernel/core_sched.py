"""The Scheduler Core (paper §III) plus the task execution engine.

The core walks an ordered list of scheduling classes to find the next
task; the order (real-time > [HPC] > fair > idle) provides the implicit
prioritization the paper's Figure 1 shows.  On top of the classic
scheduler duties (wakeups, preemption, ticks, context switches) this
module also *executes* the tasks: programs are Python generators
yielding requests, and compute phases progress at a fluid rate
determined by the POWER5 SMT state of the core they run on.  A task
runs on the CPU it was started on for its whole life.

Rates change only at discrete events — a context switch on either SMT
context, a hardware-priority change, a sibling going idle — and each
such event banks the accrued work and revalidates the phase-completion
event, which makes the fluid model exact.  Revalidation is *lazy* (see
DESIGN §8): rate changes within one delivered event are batched into a
single per-core drain, an unchanged rate leaves the pending completion
event untouched, and a slowdown lets the now-early event ride in the
heap — an epoch counter marks it stale and delivery re-pushes one
corrected event at the authoritative ETA.  A speedup, whose true
completion would precede the pending event, pays a cancel + re-push;
so does a slowdown of a phase armed this very instant (nothing banked
since arming), where riding would coalesce nothing and only cost a
stale delivery.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Generator, List, Optional

from repro.kernel.fair import FairClass
from repro.kernel.idlecls import IdleClass
from repro.kernel.policies import SchedPolicy, TaskState
from repro.kernel.rt import RTClass
from repro.kernel.runqueue import RunQueue
from repro.kernel.sched_class import SchedClass
from repro.kernel.syscalls import Compute, Exit, KernelRequest
from repro.kernel.task import Task
from repro.kernel.tunables import DEFAULT_TUNABLES, Tunables
from repro.power5.machine import Machine
from repro.power5.perfmodel import CPU_BOUND, PerfProfile
from repro.power5.priorities import (
    PrivilegeLevel,
    PriorityError,
    can_set_priority,
)
from repro.simcore.engine import SimulationError, Simulator

# Event priorities: lower fires first at equal timestamps.  Phase
# completions and wakeups run before deferred reschedules so that a
# reschedule sees the final runqueue state of the instant.
EVPRIO_PHASE = 0
EVPRIO_WAKEUP = 1
EVPRIO_TICK = 2
EVPRIO_RESCHED = 5

#: Work remainders below this are treated as completed (float dust).
_WORK_EPSILON = 1e-12

# Task states as module globals: the switch path tests and sets them
# several times per event, and a global load costs a fraction of an
# enum member lookup (DESIGN §7, per-switch rules).
_NEW = TaskState.NEW
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_SLEEPING = TaskState.SLEEPING
_EXITED = TaskState.EXITED


class _ReschedBatch:
    """The CPUs flagged for rescheduling at the current instant, shared
    by every kernel on one simulator (DESIGN §13).  The first flag of an
    instant pushes one event at ``(now, EVPRIO_RESCHED)``; its delivery
    runs ``__schedule`` for each still-flagged CPU in flag order, with
    the run loop's between-events step after each.  Where the loop would
    act there, the rest is handed back as one new batch event."""

    __slots__ = ("sim", "entries")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: ``(kernel, rq)`` entries in flag order.  ``rq.resched_event``
        #: holds the live entry of a flagged CPU; a direct ``__schedule``
        #: clears it, which retires the entry.
        self.entries: List[Any] = []

    def flag(self, kernel: "Kernel", rq: RunQueue) -> None:
        entries = self.entries
        if not entries:
            self.sim.at(self.sim.now, self.fire, EVPRIO_RESCHED)
        rq.resched_event = entry = (kernel, rq)
        entries.append(entry)

    def fire(self) -> None:
        sim = self.sim
        entries = self.entries
        limit = sim.max_events
        i = 0
        try:
            for entry in entries:
                i += 1
                kernel, rq = entry
                if rq.resched_event is entry:
                    kernel._schedule(rq.cpu)
                    if sim.instant_boundary():
                        break
                if i > limit:
                    raise SimulationError(f"event limit {limit} in a batch")
        finally:
            del entries[:i]
            if entries:
                sim.at(sim.now, self.fire, EVPRIO_RESCHED)


class Kernel:
    """Simulated kernel: scheduler core + execution engine."""

    def __init__(
        self,
        machine: Optional[Machine] = None,
        sim: Optional[Simulator] = None,
        tunables: Optional[Tunables] = None,
        trace: Optional[Any] = None,
    ) -> None:
        self.sim = sim or Simulator()
        self.machine = machine or Machine()
        self.tunables = tunables = tunables or DEFAULT_TUNABLES
        self.trace = trace

        #: Scheduling classes in priority order, filled below and by
        #: register_class; each run queue builds a class's queue from it
        #: on the class's first use on that CPU.
        self.classes: List[SchedClass] = []
        self.rqs: Dict[int, RunQueue] = {
            cpu: RunQueue(cpu, self.classes) for cpu in self.machine.cpu_ids
        }

        # Hot-path caches.  Hardware contexts never change after machine
        # construction.  The tunables read per event are copied into
        # plain attributes.
        self._ctxs: Dict[int, Any] = {
            cpu: self.machine.context(cpu) for cpu in self.machine.cpu_ids
        }
        #: The simulator's reschedule batch, shared by all its kernels.
        batch = getattr(self.sim, "_resched_batch", None)
        if batch is None:
            batch = self.sim._resched_batch = _ReschedBatch(self.sim)
        self._resched_batch = batch
        self._cs_cost = tunables.context_switch_cost
        self._tick_period = tunables.tick_period

        #: Simulated performance counters (a
        #: :class:`~repro.power5.pmu.MachinePMU`), advanced on rate
        #: changes and finalized by :meth:`run` only when a reader
        #: attaches one before the run.  Pure observability: it never
        #: feeds back into scheduling.
        self.pmu: Optional[Any] = None

        self.rt = RTClass(self)
        self.fair = FairClass(self)
        self.idle_class = IdleClass(self)
        self.classes.extend((self.rt, self.fair, self.idle_class))

        #: Class -> rank in the priority order, rebuilt on
        #: register_class; _check_preempt is too hot for list.index.
        self._class_rank: Dict[int, int] = {
            id(c): i for i, c in enumerate(self.classes)
        }

        #: Runtime invariant oracles (repro.validate.invariants); None in
        #: production so every hook site costs one attribute test.
        self.oracles: Optional[Any] = None
        if os.environ.get("REPRO_VALIDATE"):
            from repro.validate.invariants import maybe_install

            self.oracles = maybe_install(self)

        self.tasks: Dict[int, Task] = {}
        self._next_pid = 1
        #: Live (started, not exited) non-daemon tasks; the run loop
        #: stops when this reaches zero.
        self.live_tasks = 0
        #: Optional observer of live-task count changes, called with the
        #: delta (+1 start, -1 exit).  A multi-kernel driver (the cluster)
        #: uses it to keep an O(1) aggregate stop predicate instead of
        #: scanning every node's kernel after every event.
        self.on_live_change: Optional[Any] = None
        self.context_switches = 0
        #: Cores whose SMT state changed during the event being
        #: processed, keyed by core id → (core, skip_ctx); drained once
        #: per delivered event via ``Simulator.defer``.
        self._dirty_cores: Dict[int, Any] = {}

        self._boot()

    # ------------------------------------------------------------------
    # Boot / configuration
    # ------------------------------------------------------------------
    def _boot(self) -> None:
        """Create and install the per-CPU idle tasks."""
        for cpu in self.machine.cpu_ids:
            idle = Task(pid=-(cpu + 1), name=f"swapper/{cpu}")
            idle.policy = SchedPolicy.IDLE
            idle.sched_class = self.idle_class
            self.idle_class.register_idle_task(cpu, idle)
            idle.state = _RUNNING
            idle.cpu = cpu
            self.rqs[cpu].current = idle
            self.machine.context(cpu).idle()

    def register_class(self, sched_class: SchedClass) -> None:
        """Insert a new scheduling class (HPCSched) right before CFS —
        the paper places HPCSched between the real-time and the CFS
        class (Fig. 1b)."""
        names = [c.name for c in self.classes]
        if sched_class.name in names:
            raise ValueError(f"class {sched_class.name!r} already registered")
        self.classes.insert(names.index("fair"), sched_class)
        self._class_rank = {id(c): i for i, c in enumerate(self.classes)}

    def class_for_policy(self, policy: SchedPolicy) -> SchedClass:
        """The scheduling class serving ``policy``."""
        for cls in self.classes:
            if policy in cls.policies:
                return cls
        raise ValueError(
            f"no scheduling class handles policy {policy!r} "
            "(is the HPC class registered?)"
        )

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def create_task(
        self,
        name: str,
        program: Optional[Generator] = None,
        policy: SchedPolicy = SchedPolicy.NORMAL,
        nice: int = 0,
        rt_priority: int = 0,
        perf_profile: PerfProfile = CPU_BOUND,
        daemon: bool = False,
    ) -> Task:
        """Allocate a task descriptor (not yet runnable)."""
        task = Task(
            pid=self._next_pid,
            name=name,
            program=program,
            policy=policy,
            nice=nice,
            rt_priority=rt_priority,
            perf_profile=perf_profile,
        )
        self._next_pid += 1
        task.daemon = daemon
        self.tasks[task.pid] = task
        return task

    def start_task(self, task: Task, cpu: Optional[int] = None) -> None:
        """Make a NEW task runnable on ``cpu`` (fork + wake_up_new_task).

        A task runs on the CPU it was started on for its whole life:
        there is no migration, so the caller names the CPU.
        """
        if task.state != _NEW:
            raise ValueError(f"{task!r} already started")
        rq = self.rqs.get(cpu)
        if rq is None:
            raise ValueError(
                f"task {task.name!r} (pid {task.pid}) needs a CPU of this "
                f"machine {self.machine.cpu_ids}, got {cpu!r}"
            )
        task.sched_class = self.class_for_policy(task.policy)
        task.state = _READY
        task.state_since = self.sim.now
        task.sched_class.task_new(rq, task)
        if not task.daemon:
            self.live_tasks += 1
            if self.on_live_change is not None:
                self.on_live_change(1)
        if self.trace is not None:
            self._trace(task, "wake", cpu=cpu)
        task.cpu = cpu
        self._enqueue(task)
        self._check_preempt(cpu, task)

    def spawn(self, name: str, program: Generator, **kwargs) -> Task:
        """create_task + start_task in one call."""
        cpu = kwargs.pop("cpu", None)
        task = self.create_task(name, program, **kwargs)
        self.start_task(task, cpu=cpu)
        return task

    def _exit_task(self, cpu: int, task: Task) -> None:
        rq = self.rqs[cpu]
        assert rq.current is task
        self.update_curr(rq)
        task.bank_progress(self.sim.now)
        task.cancel_phase_event()
        task.state = _EXITED
        task.sum_run_time += self.sim.now - task.state_since
        task.state_since = self.sim.now
        task.sched_class.task_exit(rq, task)
        if self.trace is not None:
            self._trace(task, "exit", cpu=cpu)
        rq.current = None
        if not task.daemon:
            self.live_tasks -= 1
            if self.on_live_change is not None:
                self.on_live_change(-1)
        if task.on_exit is not None:
            task.on_exit(task)
        self.__schedule(cpu)

    # ------------------------------------------------------------------
    # Wakeups and sleeps
    # ------------------------------------------------------------------
    def wake_up(self, task: Task) -> bool:
        """Transition a sleeping task to runnable; returns False if the
        task was not sleeping (spurious wakeup)."""
        if task.state != _SLEEPING:
            return False
        if self.oracles is not None:
            self.oracles.on_wake(task, self.sim.now)
        task.state = _READY
        task.sum_wait_time += self.sim.now - task.state_since
        task.state_since = self.sim.now
        cpu = task.cpu
        task.wakeup_pending = True
        # The class hook runs before the task is queued so the HPC
        # detector can adjust hardware priorities for the new iteration.
        task.sched_class.on_wakeup(task)
        if self.trace is not None:
            self._trace(task, "wake", cpu=cpu)
        self._enqueue(task)
        self._check_preempt(cpu, task)
        return True

    def _block_current(self, cpu: int, task: Task, req: KernelRequest) -> None:
        rq = self.rqs[cpu]
        assert rq.current is task
        self.update_curr(rq)
        task.bank_progress(self.sim.now)
        task.cancel_phase_event()
        task.state = _SLEEPING
        task.sum_run_time += self.sim.now - task.state_since
        task.state_since = self.sim.now
        task.sleep_reason = req.sleep_reason
        task.sleeping_on_wait = req.is_wait
        task.sched_class.on_block(rq, task, req.sleep_reason, req.is_wait)
        if self.trace is not None:
            self._trace(task, "block", cpu=cpu, reason=req.sleep_reason, wait=req.is_wait)
        rq.current = None
        self.__schedule(cpu)

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def _enqueue(self, task: Task) -> None:
        cpu = task.cpu
        rq = self.rqs[cpu]
        task.sched_class.task_placed(rq, task)
        task.sched_class.enqueue_task(rq, task)
        rq.nr_queued += 1
        task.last_enqueue_time = self.sim.now
        self._update_tick(cpu)

    # ------------------------------------------------------------------
    # Policy changes
    # ------------------------------------------------------------------
    def sched_setscheduler(
        self, task: Task, policy: SchedPolicy, rt_priority: int = 0
    ) -> None:
        """Move the running ``task`` to another policy (and scheduling
        class), then reschedule its CPU.  A task changes its own policy
        (the :class:`~repro.kernel.syscalls.SetScheduler` request), so
        it is always the one running; any other task is refused."""
        if task.state != _RUNNING:
            raise ValueError(
                f"sched_setscheduler: task {task.name!r} (pid {task.pid}) "
                f"is {task.state.name}, not running"
            )
        new_class = self.class_for_policy(policy)
        old_class = task.sched_class
        rq = self.rqs[task.cpu]
        if old_class is not new_class:
            old_class.task_exit(rq, task)
        task.policy = policy
        task.rt_priority = rt_priority
        task.sched_class = new_class
        if old_class is not new_class:
            new_class.task_new(rq, task)
        self._trace(task, "setscheduler", policy=policy.name)
        self.resched(task.cpu)

    # ------------------------------------------------------------------
    # Hardware priority mechanism entry point
    # ------------------------------------------------------------------
    def set_hw_priority(
        self,
        task: Task,
        priority: int,
        privilege: PrivilegeLevel = PrivilegeLevel.SUPERVISOR,
    ) -> None:
        """Program a task's POWER5 hardware thread priority.

        Applied to the context immediately if the task is running,
        otherwise restored at the next context switch — mirroring how a
        kernel would save/restore the priority in the task context.
        """
        if not can_set_priority(priority, privilege):
            raise PriorityError(
                f"privilege {privilege.name} cannot set priority {priority}"
            )
        if task.hw_priority == int(priority):
            return
        task.hw_priority = int(priority)
        task.hw_priority_history += ((self.sim.now, int(priority)),)
        self._trace(task, "hw_priority", priority=int(priority))
        if task.state == _RUNNING and task.cpu is not None:
            ctx = self._ctxs[task.cpu]
            ctx.set_priority(priority)
            self._rates_changed(ctx.core)

    # ------------------------------------------------------------------
    # The scheduler proper
    # ------------------------------------------------------------------
    def resched(self, cpu: int) -> None:
        """Flag ``cpu`` for rescheduling by this instant's batch."""
        rq = self.rqs[cpu]
        rq.need_resched = True
        if rq.resched_event is None:
            self._resched_batch.flag(self, rq)

    def _check_preempt(self, cpu: int, woken: Task) -> None:
        rq = self.rqs[cpu]
        cur = rq.current
        if cur is None or cur.is_idle_task:
            self.resched(cpu)
            return
        rank = self._class_rank
        wi = rank[id(woken.sched_class)]
        ci = rank[id(cur.sched_class)]
        if wi < ci:
            self.resched(cpu)
        elif wi == ci and woken.sched_class.check_preempt(rq, woken):
            self.resched(cpu)

    def __schedule(self, cpu: int) -> None:
        """Pick the best runnable task on ``cpu`` and switch to it."""
        rq = self.rqs[cpu]
        rq.need_resched = False
        # Retire a still-pending batch entry: this direct path (exit or
        # block) has done its work.
        rq.resched_event = None
        prev = rq.current

        # A still-runnable prev (preemption path) goes back to its queue.
        if prev is not None and prev.state == _RUNNING and not prev.is_idle_task:
            self.update_curr(rq)
            prev.bank_progress(self.sim.now)
            prev.cancel_phase_event()
            prev.state = _READY
            prev.sum_run_time += self.sim.now - prev.state_since
            prev.state_since = self.sim.now
            prev.sched_class.put_prev_task(rq, prev)
            if self.trace is not None:
                self._trace(prev, "preempted", cpu=cpu)
            self._enqueue(prev)

        next_task = self._pick_next(rq)
        same = next_task is prev
        rq.current = next_task
        if not same:
            self.context_switches += 1
        cost = 0.0 if same else self._cs_cost
        self._install(cpu, next_task, cost)

    # Name-mangled alias so subsystems inside the package can call it.
    _schedule = __schedule

    def _pick_next(self, rq: RunQueue) -> Task:
        if rq.nr_queued == 0:
            # ``nr_queued`` is the exact sum of the class queues (the
            # only mutators are _enqueue and _pick_next), so every
            # class is empty: fall through to the never-empty idle class
            # directly.
            task = self.idle_class.pick_next_task(rq)
            if task is not None:
                return task
        else:
            for cls in self.classes:
                task = cls.pick_next_task(rq)
                if task is not None:
                    if not task.is_idle_task:
                        rq.nr_queued -= 1
                    return task
        raise RuntimeError("scheduler found no task (idle class broken)")

    def _install(self, cpu: int, task: Task, cost: float) -> None:
        """Load ``task`` on the CPU's hardware context and resume it."""
        rq = self.rqs[cpu]
        now = self.sim.now
        rq.curr_switched_in_at = now
        ctx = self._ctxs[cpu]

        if task.is_idle_task:
            task.state = _RUNNING
            ctx.idle()
            self._rates_changed(ctx.core, skip_ctx=ctx)
            if rq.nr_queued:
                self._update_tick(cpu)
            return

        task.state = _RUNNING
        task.exec_start = now
        task.sum_ready_time += now - task.state_since
        task.state_since = now
        if task.wakeup_pending and task.last_enqueue_time is not None:
            latency = now - task.last_enqueue_time
            task.wakeups += 1
            task.sum_wakeup_latency += latency
            if latency > task.max_wakeup_latency:
                task.max_wakeup_latency = latency
            task.wakeup_pending = False
        ctx.load(task, task.hw_priority, busy=True)
        # The freshly installed context is excluded from the rebase: its
        # task's phase is (re)started by _start_phase below, and its
        # progress was already banked when it left the CPU.
        self._rates_changed(ctx.core, skip_ctx=ctx)
        if self.trace is not None:
            self.trace.record(now, task, "run", cpu=cpu)
        if task.phase_remaining > _WORK_EPSILON:
            self._start_phase(cpu, task, delay=cost)
        else:
            self._advance_program(cpu, task)
        if rq.nr_queued:  # every needs_tick wants a waiting task
            self._update_tick(cpu)

    # ------------------------------------------------------------------
    # Fluid-rate compute phases
    # ------------------------------------------------------------------
    def _start_phase(self, cpu: int, task: Task, delay: float = 0.0) -> None:
        now = self.sim.now
        ctx = self._ctxs[cpu]
        rate = ctx.core.context_speed(ctx.thread_index, task.perf_profile)
        task.phase_rate = rate
        task.phase_started_at = now + delay
        task.cancel_phase_event()
        if rate <= 0.0:
            return  # stalled; a future rate change restarts the phase
        eta = now + delay + task.phase_remaining / rate
        epoch = task.phase_epoch + 1
        task.phase_epoch = epoch
        task.phase_eta = eta
        task.phase_event = self.sim.at(
            eta,
            lambda: self._phase_complete(cpu, task, epoch),
            priority=EVPRIO_PHASE,
        )

    def _phase_complete(self, cpu: int, task: Task, epoch: int) -> None:
        task.phase_event = None
        if task.state != _RUNNING:
            return  # stale event (defensive; cancels should prevent this)
        if epoch != task.phase_epoch:
            # The authoritative ETA moved later while this event rode in
            # the heap (a slowdown; see _rebase_phase).  Re-push the one
            # corrected completion at the true ETA.
            eta = task.phase_eta
            if eta is None:
                return  # phase stalled meanwhile; no completion owed
            if eta > self.sim.now:
                cur = task.phase_epoch
                task.phase_event = self.sim.at(
                    eta,
                    lambda: self._phase_complete(cpu, task, cur),
                    priority=EVPRIO_PHASE,
                )
                return
            # eta == now: the corrected ETA lands on this very instant —
            # fall through and complete.
        if self.oracles is not None:
            self.oracles.on_phase_complete(task, self.sim.now)
        task.phase_remaining = 0.0
        task.phase_rate = 0.0
        task.phase_started_at = None
        task.phase_eta = None
        self.update_curr(self.rqs[cpu])
        self._advance_program(cpu, task)

    def _rates_changed(self, core, skip_ctx=None) -> None:
        """SMT state of ``core`` changed: mark it dirty; the rebase runs
        once, after the current event's callback returns.

        Several rate-changing actions often land on the same core within
        one delivered event (an install plus the sibling going idle, a
        preempt cascade, a priority sweep).  Batching them into a single
        deferred drain pays the sibling walk (and an attached PMU's
        attribution) once per core per event instead of once per action.

        ``skip_ctx`` names a context whose phase the caller manages
        itself (the one a task was just installed on): its progress was
        banked when it left the CPU and ``_start_phase`` below (re)arms
        it.  The *last* mark of an instant wins; that is equivalent to
        the eager per-call skip because a context an earlier action
        switched out is no longer RUNNING by drain time and the state
        filter in :meth:`_drain_rate_changes` drops it.

        The core is marked before the drain is deferred: outside a run
        ``defer`` drains at once, and must find it.
        """
        dirty = self._dirty_cores
        first = not dirty
        dirty[core.core_id] = (core, skip_ctx)
        if first:
            self.sim.defer(self._drain_rate_changes)

    def _drain_rate_changes(self) -> None:
        """Rebase the phases of every dirty core's contexts (deferred
        from :meth:`_rates_changed`; runs once per delivered event).

        The dirty set is drained in batches: snapshot, clear, process —
        same insertion order as the previous one-at-a-time pop, but the
        dict is touched twice per drain instead of twice per core.  When
        both of a core's contexts carry a running mid-phase task, their
        rates come from one :meth:`SMTCore.context_speeds` pair call
        (one memo hit in the table-driven model) instead of two mirrored
        ``context_speed`` calls; rebasing never mutates SMT state, so
        computing both rates up front is exact.
        """
        dirty = self._dirty_cores
        now = self.sim.now
        pmu = self.pmu
        advance = pmu.advance_core if pmu is not None else None
        running = _RUNNING
        while dirty:
            batch = list(dirty.values())
            dirty.clear()
            for core, skip_ctx in batch:
                if advance is not None:
                    # Attribute the elapsed interval to the pre-change
                    # state.
                    advance(core, now)
                c0, c1 = core.contexts
                t0 = c0.task if c0 is not skip_ctx else None
                if t0 is not None and (
                    not c0.busy
                    or t0.state != running
                    or t0.phase_started_at is None
                ):
                    t0 = None
                t1 = c1.task if c1 is not skip_ctx else None
                if t1 is not None and (
                    not c1.busy
                    or t1.state != running
                    or t1.phase_started_at is None
                ):
                    t1 = None
                if t0 is not None:
                    if t1 is not None:
                        r0, r1 = core.context_speeds(
                            t0.perf_profile, t1.perf_profile
                        )
                        self._rebase_phase(c0.cpu_id, t0, r0)
                        self._rebase_phase(c1.cpu_id, t1, r1)
                    else:
                        self._rebase_phase(c0.cpu_id, t0)
                elif t1 is not None:
                    self._rebase_phase(c1.cpu_id, t1)

    def _rebase_phase(
        self, cpu: int, task: Task, rate: Optional[float] = None
    ) -> None:
        """Re-anchor a RUNNING task's in-flight phase to its context's
        current speed, reusing the pending completion event when it can
        still fire (lazy ETA revalidation, DESIGN §8).

        * unchanged rate: the pending completion is still exact — zero
          work (the common case: most SMT flips on a sibling leave this
          context's speed alone).  Not taken while the phase start is
          still pending (context-switch delay): the rebase must restamp
          the anchor to ``now`` exactly as the eager path did.
        * speedup: the true ETA moves *earlier* than the pending event,
          which therefore cannot be ridden — cancel and re-push.
        * slowdown: the true ETA moves later; the pending event rides,
          the epoch bump marks it stale, and its delivery re-pushes one
          corrected event at :attr:`Task.phase_eta`.
        * slowdown of a phase armed this instant (its anchor is not
          behind ``now``, so nothing was banked since arming — e.g. the
          second SMT sibling installed at a barrier release): a ride
          would only buy a stale delivery, so cancel and re-push now.
        * stall (rate 0): no completion is owed until a future change.
        """
        now = self.sim.now
        if rate is None:
            ctx = self._ctxs[cpu]
            rate = ctx.core.context_speed(ctx.thread_index, task.perf_profile)
        started = task.phase_started_at
        if rate == task.phase_rate and started is not None and started <= now:
            return
        task.bank_progress(now)
        if task.phase_remaining <= _WORK_EPSILON:
            task.phase_remaining = 0.0
        task.phase_rate = rate
        task.phase_started_at = now
        ev = task.phase_event
        if rate <= 0.0:
            task.cancel_phase_event()
            return  # stalled; a future rate change restarts the phase
        eta = now + task.phase_remaining / rate
        if ev is None or ev.cancelled:
            # Restarting out of a stall: no pending event to reuse.
            epoch = task.phase_epoch + 1
            task.phase_epoch = epoch
            task.phase_eta = eta
            task.phase_event = self.sim.at(
                eta,
                lambda: self._phase_complete(cpu, task, epoch),
                priority=EVPRIO_PHASE,
            )
            return
        if eta == task.phase_eta:
            return  # authoritative ETA unchanged: free ride
        if eta < ev.time or started >= now:
            # Speedup past the pending event (it would fire too late),
            # or a phase armed this instant, where riding coalesces
            # nothing and costs a stale delivery.
            task.cancel_phase_event()
            epoch = task.phase_epoch + 1
            task.phase_epoch = epoch
            task.phase_eta = eta
            task.phase_event = self.sim.at(
                eta,
                lambda: self._phase_complete(cpu, task, epoch),
                priority=EVPRIO_PHASE,
            )
            return
        # Slowdown after progress accrued: the pending event fires
        # first; mark it stale and let delivery re-push at the
        # authoritative ETA.
        task.phase_epoch += 1
        task.phase_eta = eta

    # ------------------------------------------------------------------
    # Program driver
    # ------------------------------------------------------------------
    def _advance_program(self, cpu: int, task: Task) -> None:
        """Fetch and dispatch requests until the task computes, blocks
        or exits."""
        rq = self.rqs[cpu]
        while True:
            if task.program is None:
                self._exit_task(cpu, task)
                return
            try:
                # The yield expression evaluates to the pending request's
                # result (e.g. a received payload); None for plain ops.
                result, task._syscall_result = task._syscall_result, None
                req = task.program.send(result)
            except StopIteration:
                self._exit_task(cpu, task)
                return
            if isinstance(req, Exit):
                self._exit_task(cpu, task)
                return
            if isinstance(req, Compute):
                if req.work <= 0.0:
                    continue
                task.phase_remaining = req.work
                self._start_phase(cpu, task)
                return
            if isinstance(req, KernelRequest):
                cont = req.execute(self, task)
                if not cont:
                    self._block_current(cpu, task, req)
                    return
                if rq.current is not task or task.state != _RUNNING:
                    return  # the request displaced us
                if rq.need_resched:
                    return  # preemption point (policy or priority change...)
                continue
            raise TypeError(f"task program yielded unsupported {req!r}")

    # ------------------------------------------------------------------
    # Accounting and ticks
    # ------------------------------------------------------------------
    def update_curr(self, rq: RunQueue) -> None:
        """Charge the running task's elapsed occupancy (and let its
        class account it, e.g. as CFS vruntime)."""
        cur = rq.current
        if cur is None or cur.is_idle_task or cur.exec_start is None:
            return
        delta = self.sim.now - cur.exec_start
        if delta <= 0.0:
            return
        cur.sum_exec_runtime += delta
        cur.exec_start = self.sim.now
        cur.sched_class.account(rq, cur, delta)
        if self.oracles is not None:
            self.oracles.on_account(rq.cpu, cur, delta, self.sim.now)

    def _update_tick(self, cpu: int) -> None:
        rq = self.rqs[cpu]
        cur = rq.current
        # Every class's needs_tick requires its own queue to be
        # non-empty (RT: a queued best priority; HPC/fair: queued
        # tasks), so an empty runqueue can never need a tick — skip
        # the class dispatch on the common nothing-waiting path.
        needed = (
            rq.nr_queued > 0
            and cur is not None
            and not cur.is_idle_task
            and cur.sched_class.needs_tick(rq, cur)
        )
        if needed and (rq.tick_event is None or rq.tick_event.cancelled):
            rq.tick_event = self.sim.after(
                self._tick_period,
                lambda: self._tick(cpu),
                priority=EVPRIO_TICK,
            )

    def _tick(self, cpu: int) -> None:
        rq = self.rqs[cpu]
        rq.tick_event = None
        cur = rq.current
        if cur is not None and not cur.is_idle_task:
            self.update_curr(rq)
            cur.sched_class.task_tick(rq, cur)
        self._update_tick(cpu)

    # ------------------------------------------------------------------
    # Run loop and tracing
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation until all non-daemon tasks exit (or until
        the optional time horizon)."""
        end = self.sim.run(until=until, stop_when=lambda: self.live_tasks == 0)
        if self.pmu is not None:
            self.pmu.finalize(end)
        if self.oracles is not None:
            self.oracles.on_run_end(end)
        return end

    def _trace(self, task: Task, kind: str, **info) -> None:
        if self.trace is not None:
            self.trace.record(self.sim.now, task, kind, **info)

    @property
    def now(self) -> float:
        return self.sim.now
