"""The scenario language shared by the fluid engine and the reference.

A :class:`Scenario` is a machine shape plus a set of tasks, each pinned
to one logical CPU and running a straight-line program of four
primitives: compute, sleep, hardware-priority change, barrier.  The
domain is deliberately the paper's operating regime — one task per
logical CPU (§IV-A: one MPI process per context) — so that *scheduling
decisions* are forced and identical in both engines, and any timing
divergence isolates a defect in the **fluid-rate execution engine**
(rate arithmetic, progress banking, sleep/wakeup timing, SMT state
transitions), which is exactly the component the differential oracle
exists to prove correct.

The same :class:`Scenario` object is consumed by

* :func:`build_kernel_run` — translated into generator programs driven
  by the real :class:`repro.kernel.core_sched.Kernel`, and
* :class:`repro.validate.reference.ReferenceSimulator` — interpreted
  directly by the small-step engine.

Both record, per task, the simulated time at which every program op
completed; that list is the *event log* the differential harness diffs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.kernel.syscalls import Compute, KernelRequest, Sleep

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core_sched import Kernel
    from repro.kernel.task import Task

#: Hardware-priority range scenarios may use: the "normal" prioritized
#: SMT regime of paper Table I (special levels 0/1/7 are exercised by
#: the power5 unit suite; the engine treats them via separate paths).
PRIO_MIN, PRIO_MAX = 2, 6


@dataclass(frozen=True)
class ComputeOp:
    """Run for ``work`` fluid work units."""

    work: float

    def describe(self) -> str:
        """Human-readable op label for scenario dumps."""
        return f"compute({self.work:.6g})"


@dataclass(frozen=True)
class SleepOp:
    """Block for a fixed simulated duration."""

    duration: float

    def describe(self) -> str:
        """Human-readable op label for scenario dumps."""
        return f"sleep({self.duration:.6g})"


@dataclass(frozen=True)
class SetPrioOp:
    """Reprogram the task's own POWER5 hardware thread priority."""

    priority: int

    def describe(self) -> str:
        """Human-readable op label for scenario dumps."""
        return f"setprio({self.priority})"


@dataclass(frozen=True)
class BarrierOp:
    """Synchronize with every other task that carries the same group."""

    group: int = 0

    def describe(self) -> str:
        """Human-readable op label for scenario dumps."""
        return f"barrier({self.group})"


Op = object  # any of the four dataclasses above


@dataclass(frozen=True)
class TaskSpec:
    """One pinned task of a scenario."""

    name: str
    cpu: int
    ops: Tuple[Op, ...]
    profile: str = "cpu_bound"  # cpu_bound | mixed | mem_bound
    hw_priority: int = 4

    def describe(self) -> str:
        """One-line dump: placement, priority, profile, program."""
        prog = ", ".join(op.describe() for op in self.ops)
        return (
            f"{self.name}@cpu{self.cpu} prio={self.hw_priority} "
            f"{self.profile}: [{prog}]"
        )


@dataclass(frozen=True)
class Scenario:
    """A complete, self-contained differential-test case."""

    tasks: Tuple[TaskSpec, ...]
    chips: int = 1
    cores_per_chip: int = 2
    label: str = ""

    def describe(self) -> str:
        """Multi-line dump: machine shape plus every task's program."""
        head = (
            f"scenario {self.label or '<anon>'}: {self.chips} chip(s) x "
            f"{self.cores_per_chip} core(s) x 2 threads"
        )
        return "\n".join([head] + [f"  {t.describe()}" for t in self.tasks])

    @property
    def n_cpus(self) -> int:
        return self.chips * self.cores_per_chip * 2

    def total_ops(self) -> int:
        """Number of program ops (= loggable events) across all tasks."""
        return sum(len(t.ops) for t in self.tasks)

    def validate(self) -> None:
        """Reject scenarios outside the differential domain."""
        seen_cpus = set()
        groups: Dict[int, List[int]] = {}
        for spec in self.tasks:
            if not 0 <= spec.cpu < self.n_cpus:
                raise ValueError(f"{spec.name}: cpu{spec.cpu} not on the machine")
            if spec.cpu in seen_cpus:
                raise ValueError(
                    f"cpu{spec.cpu} hosts two tasks; the differential domain "
                    "is one pinned task per logical CPU"
                )
            seen_cpus.add(spec.cpu)
            if not PRIO_MIN <= spec.hw_priority <= PRIO_MAX:
                raise ValueError(f"{spec.name}: priority {spec.hw_priority}")
            if spec.profile not in PROFILES:
                raise ValueError(f"{spec.name}: unknown profile {spec.profile!r}")
            for op in spec.ops:
                if isinstance(op, SetPrioOp) and not PRIO_MIN <= op.priority <= PRIO_MAX:
                    raise ValueError(f"{spec.name}: {op.describe()} out of range")
                if isinstance(op, BarrierOp):
                    groups.setdefault(op.group, []).append(id(spec))
        # Barrier counts must match across members or both engines
        # deadlock (a degenerate scenario, not a divergence).
        for group in groups:
            counts = {
                spec.name: sum(
                    1
                    for op in spec.ops
                    if isinstance(op, BarrierOp) and op.group == group
                )
                for spec in self.tasks
            }
            arrivals = {c for c in counts.values() if c > 0}
            if len(arrivals) > 1:
                raise ValueError(
                    f"barrier group {group}: mismatched arrival counts {counts}"
                )


#: Profile names -> PerfProfile objects (resolved lazily to avoid an
#: import cycle through power5 at module load).
def profile_by_name(name: str):
    """Resolve a scenario profile name to its PerfProfile object."""
    from repro.power5.perfmodel import CPU_BOUND, MEM_BOUND, MIXED

    return {"cpu_bound": CPU_BOUND, "mixed": MIXED, "mem_bound": MEM_BOUND}[name]


PROFILES = ("cpu_bound", "mixed", "mem_bound")


# ----------------------------------------------------------------------
# Translation to the fluid-rate engine
# ----------------------------------------------------------------------
class _SetHwPriority(KernelRequest):
    """Request wrapper around :meth:`Kernel.set_hw_priority`."""

    def __init__(self, priority: int) -> None:
        self.priority = priority

    def execute(self, kernel: "Kernel", task: "Task") -> bool:
        kernel.set_hw_priority(task, self.priority)
        return True


class _BarrierState:
    """One barrier group instance shared by its member tasks."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.waiting: List["Task"] = []


class _BarrierWait(KernelRequest):
    """Block until every member of the group has arrived."""

    is_wait = True  # an MPI-style wait phase (iteration boundary)

    def __init__(self, state: _BarrierState) -> None:
        self.state = state

    @property
    def sleep_reason(self) -> str:
        return "barrier"

    def execute(self, kernel: "Kernel", task: "Task") -> bool:
        if len(self.state.waiting) + 1 >= self.state.size:
            waiters, self.state.waiting = self.state.waiting, []
            for waiter in waiters:
                kernel.wake_up(waiter)
            return True
        self.state.waiting.append(task)
        return False


@dataclass
class KernelRunResult:
    """Event logs of a scenario run through the fluid-rate engine."""

    #: task name -> [(op index, completion time), ...]
    logs: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    exec_time: float = 0.0


def build_kernel_run(
    scenario: Scenario,
    perf_model=None,
    mutate_task=None,
) -> KernelRunResult:
    """Run ``scenario`` through the real fluid-rate kernel engine.

    ``mutate_task`` is a hook for the mutation tests: called with each
    created :class:`Task` before the run starts (e.g. to install a
    buggy ``bank_progress``).  Context-switch cost is zeroed so that the
    only timing difference against the reference is quantization.
    """
    from repro.kernel.core_sched import Kernel
    from repro.kernel.tunables import Tunables
    from repro.power5.machine import Machine, MachineTopology
    from repro.power5.perfmodel import TableDrivenModel

    scenario.validate()
    topology = MachineTopology(
        chips=scenario.chips, cores_per_chip=scenario.cores_per_chip
    )
    machine = Machine(topology, perf_model or TableDrivenModel())
    kernel = Kernel(machine=machine, tunables=Tunables(context_switch_cost=0.0))

    group_sizes: Dict[int, int] = {}
    for spec in scenario.tasks:
        for op in spec.ops:
            if isinstance(op, BarrierOp):
                group_sizes[op.group] = group_sizes.get(op.group, 0)
    for group in group_sizes:
        group_sizes[group] = sum(
            1
            for spec in scenario.tasks
            if any(isinstance(op, BarrierOp) and op.group == group for op in spec.ops)
        )
    barriers = {g: _BarrierState(size) for g, size in group_sizes.items()}

    result = KernelRunResult()

    def make_program(spec: TaskSpec, log: List[Tuple[int, float]]):
        def prog():
            for index, op in enumerate(spec.ops):
                if isinstance(op, ComputeOp):
                    yield Compute(op.work)
                elif isinstance(op, SleepOp):
                    yield Sleep(op.duration)
                elif isinstance(op, SetPrioOp):
                    yield _SetHwPriority(op.priority)
                elif isinstance(op, BarrierOp):
                    yield _BarrierWait(barriers[op.group])
                else:  # pragma: no cover - scenario.validate rejects these
                    raise TypeError(f"unknown op {op!r}")
                log.append((index, kernel.sim.now))

        return prog()

    for spec in scenario.tasks:
        log: List[Tuple[int, float]] = []
        result.logs[spec.name] = log
        task = kernel.create_task(
            spec.name,
            program=make_program(spec, log),
            perf_profile=profile_by_name(spec.profile),
        )
        task.hw_priority = spec.hw_priority
        if mutate_task is not None:
            mutate_task(task)
        kernel.start_task(task, cpu=spec.cpu)

    result.exec_time = kernel.run()
    return result


# ----------------------------------------------------------------------
# Structural editing helpers (used by the shrinker and the fuzzer)
# ----------------------------------------------------------------------
def without_task(scenario: Scenario, name: str) -> Scenario:
    """Drop one task (keeping barrier groups consistent)."""
    kept = tuple(t for t in scenario.tasks if t.name != name)
    return replace(scenario, tasks=_prune_degenerate_barriers(kept))


def truncate_ops(scenario: Scenario, limits: Dict[str, int]) -> Scenario:
    """Cut each task's program to its first ``limits[name]`` ops."""
    kept = tuple(
        replace(t, ops=t.ops[: limits.get(t.name, len(t.ops))])
        for t in scenario.tasks
    )
    return replace(scenario, tasks=_balance_barriers(kept))


def _prune_degenerate_barriers(tasks: Tuple[TaskSpec, ...]) -> Tuple[TaskSpec, ...]:
    """Remove barrier ops whose group has fewer than two members left."""
    members: Dict[int, int] = {}
    for t in tasks:
        for g in {op.group for op in t.ops if isinstance(op, BarrierOp)}:
            members[g] = members.get(g, 0) + 1
    lonely = {g for g, n in members.items() if n < 2}
    if not lonely:
        return tasks
    return tuple(
        replace(
            t,
            ops=tuple(
                op
                for op in t.ops
                if not (isinstance(op, BarrierOp) and op.group in lonely)
            ),
        )
        for t in tasks
    )


def _balance_barriers(tasks: Tuple[TaskSpec, ...]) -> Tuple[TaskSpec, ...]:
    """Equalize per-group barrier arrival counts after truncation by
    dropping the excess arrivals from the tail of longer programs."""
    counts: Dict[int, List[int]] = {}
    for t in tasks:
        for op in t.ops:
            if isinstance(op, BarrierOp):
                counts.setdefault(op.group, []).append(0)
    floor: Dict[int, int] = {}
    for g in counts:
        per_task = [
            sum(1 for op in t.ops if isinstance(op, BarrierOp) and op.group == g)
            for t in tasks
            if any(isinstance(op, BarrierOp) and op.group == g for op in t.ops)
        ]
        floor[g] = min(per_task) if per_task else 0
    out = []
    for t in tasks:
        seen: Dict[int, int] = {}
        ops = []
        for op in t.ops:
            if isinstance(op, BarrierOp):
                seen[op.group] = seen.get(op.group, 0) + 1
                if seen[op.group] > floor.get(op.group, 0):
                    continue
            ops.append(op)
        out.append(replace(t, ops=tuple(ops)))
    return _prune_degenerate_barriers(tuple(out))
