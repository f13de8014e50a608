"""Seeded scenario fuzzing for the differential oracle.

Scenarios are generated SPMD-shaped, mirroring the paper's workloads:
a random machine shape, a random subset of logical CPUs hosting pinned
tasks, and per-task programs structured in *rounds* — a mix of compute
(with per-round load noise), sleeps and hardware-priority writes,
optionally closed by a global barrier (so barrier arrival counts always
match and no generated scenario can deadlock).  The dimensions the
fuzzer explores:

* topology: 1–2 chips, 1–3 cores per chip,
* rank count and placement (including siblings sharing a core and
  lone tasks in ST mode),
* compute/communication mix and per-round load noise,
* performance profiles (cpu/mixed/memory bound),
* hardware priorities, both initial and mid-run rewrites (the source
  of fluid-engine rate rebasing, i.e. the banked-progress hot path).

Everything flows from one seeded ``numpy`` generator, so a fuzz
campaign is reproducible from ``(seed, index)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.validate.differential import (
    DifferentialResult,
    run_differential,
    shrink,
)
from repro.validate.scenario import (
    BarrierOp,
    ComputeOp,
    PROFILES,
    Scenario,
    SetPrioOp,
    SleepOp,
    TaskSpec,
)


#: Scenario pools ``run_fuzz`` can draw from: the generic SPMD engine
#: fuzzer, or shapes derived from the synth generator family
#: (``repro.workloads.synth``) expressed in the scenario language.
SCENARIO_POOLS = ("engine", "synth")


def generate_scenario(seed: int, index: int) -> Scenario:
    """Deterministically generate the ``index``-th scenario of ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))

    chips = int(rng.choice([1, 1, 1, 2]))
    cores_per_chip = int(rng.integers(1, 4)) if chips == 1 else 2
    n_cpus = chips * cores_per_chip * 2

    n_tasks = int(rng.integers(1, n_cpus + 1))
    cpus = rng.permutation(n_cpus)[:n_tasks]

    rounds = int(rng.integers(1, 6))
    #: Tasks joining the per-round global barrier (needs >= 2 members).
    barrier_members = set()
    if n_tasks >= 2 and rng.random() < 0.8:
        size = int(rng.integers(2, n_tasks + 1))
        barrier_members = set(rng.permutation(n_tasks)[:size].tolist())

    specs: List[TaskSpec] = []
    for t in range(n_tasks):
        profile = str(rng.choice(PROFILES))
        prio = int(rng.integers(3, 7))  # 3..6
        base_work = float(rng.uniform(0.005, 0.05))
        ops: List[object] = []
        for _ in range(rounds):
            for _ in range(int(rng.integers(1, 4))):
                kind = rng.random()
                if kind < 0.62:
                    noise = float(rng.uniform(0.3, 1.8))  # load noise
                    ops.append(ComputeOp(work=base_work * noise))
                elif kind < 0.84:
                    ops.append(SleepOp(duration=float(rng.uniform(2e-4, 4e-3))))
                else:
                    ops.append(SetPrioOp(priority=int(rng.integers(3, 7))))
            if t in barrier_members:
                ops.append(BarrierOp(group=0))
        # Every program ends with a tiny compute so the final event is a
        # rate-dependent completion, not a barrier timestamp.
        ops.append(ComputeOp(work=base_work * 0.5))
        specs.append(
            TaskSpec(
                name=f"F{t}",
                cpu=int(cpus[t]),
                ops=tuple(ops),
                profile=profile,
                hw_priority=prio,
            )
        )
    return Scenario(
        tasks=tuple(specs),
        chips=chips,
        cores_per_chip=cores_per_chip,
        label=f"fuzz-{seed}-{index}",
    )


def generate_synth_scenario(seed: int, index: int) -> Scenario:
    """The ``index``-th synth-pool scenario of ``seed``.

    Rotates through the synth generator family, re-expressed in the
    four-op scenario language so the differential oracle can check the
    fluid engine on exactly the shapes the generators produce:

    * **scatter** — a :func:`repro.workloads.synth.calculate_work`
      distribution (randomized target imbalance) over every logical
      CPU, barrier-synchronized rounds;
    * **convergence** — (light, heavy) SMT pairs with the partner swap
      at the midpoint round (the step-change protocol);
    * **offload** — many tiny computes interleaved with short sleeps on
      odd CPUs against a long compute on even CPUs (the wakeup-latency
      stressor; message passing is outside the scenario DSL, so the
      blocking is modeled with sleeps).
    """
    from repro.workloads.synth import calculate_work

    rng = np.random.default_rng(np.random.SeedSequence((seed, index, 0x53594E54)))
    family = ("scatter", "convergence", "offload")[index % 3]
    chips = int(rng.choice([1, 1, 2]))
    cores_per_chip = 2
    n_cpus = chips * cores_per_chip * 2
    rounds = int(rng.integers(2, 5))
    mean_work = float(rng.uniform(0.004, 0.02))

    programs: List[List[object]] = [[] for _ in range(n_cpus)]
    if family == "scatter":
        imbalance = float(rng.uniform(1.0, n_cpus))
        loads = calculate_work(n_cpus, imbalance, mean_work=mean_work, rng=rng)
        for _ in range(rounds):
            for cpu, load in enumerate(loads):
                programs[cpu].append(ComputeOp(work=load))
                programs[cpu].append(BarrierOp(group=0))
    elif family == "convergence":
        imbalance = float(rng.uniform(1.0, 2.0))
        light = (2.0 - imbalance) * mean_work
        heavy = imbalance * mean_work
        step_round = rounds // 2
        for r in range(rounds):
            swapped = r >= step_round
            for cpu in range(n_cpus):
                is_heavy = (cpu % 2 == 1) != swapped
                work = heavy if is_heavy else light
                if work > 0:
                    programs[cpu].append(ComputeOp(work=work))
                programs[cpu].append(BarrierOp(group=0))
    else:  # offload
        messages = int(rng.integers(3, 9))
        chunk = mean_work / 8.0
        for _ in range(rounds):
            for cpu in range(n_cpus):
                if cpu % 2 == 0:
                    programs[cpu].append(ComputeOp(work=mean_work))
                else:
                    for _ in range(messages):
                        programs[cpu].append(SleepOp(duration=chunk))
                        programs[cpu].append(ComputeOp(work=chunk))
                programs[cpu].append(BarrierOp(group=0))

    specs = []
    for cpu, ops in enumerate(programs):
        # Rate-dependent final event, as in the engine pool.
        ops.append(ComputeOp(work=mean_work * 0.5))
        specs.append(
            TaskSpec(
                name=f"S{cpu}",
                cpu=cpu,
                ops=tuple(ops),
                profile=str(rng.choice(PROFILES)),
                hw_priority=int(rng.integers(3, 7)),
            )
        )
    return Scenario(
        tasks=tuple(specs),
        chips=chips,
        cores_per_chip=cores_per_chip,
        label=f"synth-{family}-{seed}-{index}",
    )


#: Pool name -> generator function.
POOL_GENERATORS = {
    "engine": generate_scenario,
    "synth": generate_synth_scenario,
}


@dataclass
class FuzzCase:
    """Outcome of one fuzzed scenario."""

    index: int
    label: str
    ok: bool
    events: int
    refined: bool
    exec_time: float


@dataclass
class FuzzReport:
    """Outcome of a fuzz campaign."""

    seed: int
    count: int
    dt: float
    pool: str = "engine"
    cases: List[FuzzCase] = field(default_factory=list)
    #: Result of the *shrunk* first divergence, if any was found.
    failure: Optional[DifferentialResult] = None
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def divergences(self) -> int:
        return sum(1 for c in self.cases if not c.ok)

    def summary(self) -> str:
        """Render the campaign outcome (plus minimized repro, if any)."""
        refined = sum(1 for c in self.cases if c.refined)
        lines = [
            f"fuzz campaign: pool={self.pool} seed={self.seed} "
            f"scenarios={len(self.cases)}/{self.count} dt={self.dt:g} "
            f"wall={self.wall_time:.2f}s",
            f"  divergences: {self.divergences}"
            f"  (refinement re-checks: {refined})",
        ]
        if self.failure is not None and self.failure.divergence is not None:
            lines.append("  MINIMIZED REPRO:")
            lines.append(
                "\n".join(
                    "    " + ln
                    for ln in self.failure.scenario.describe().splitlines()
                )
            )
            lines.append("    " + self.failure.divergence.describe())
        return "\n".join(lines)


def run_fuzz(
    count: int = 25,
    seed: int = 0,
    dt: float = 2e-5,
    stop_on_divergence: bool = True,
    on_case=None,
    pool: str = "engine",
) -> FuzzReport:
    """Fuzz ``count`` scenarios through the differential harness.

    ``pool`` selects the scenario generator (see
    :data:`SCENARIO_POOLS`): ``engine`` is the generic SPMD fuzzer,
    ``synth`` draws shapes from the synth workload generators.  On the
    first divergence the scenario is shrunk to a minimized repro
    (stored in ``report.failure``); with ``stop_on_divergence`` the
    campaign ends there.  ``on_case`` is an optional progress callback
    receiving each :class:`FuzzCase`.
    """
    if count < 1:
        raise ValueError(f"need at least one scenario, got {count}")
    try:
        generate = POOL_GENERATORS[pool]
    except KeyError:
        raise ValueError(
            f"unknown scenario pool {pool!r}; pick from {SCENARIO_POOLS}"
        ) from None
    report = FuzzReport(seed=seed, count=count, dt=dt, pool=pool)
    start = time.perf_counter()
    for index in range(count):
        scenario = generate(seed, index)
        result = run_differential(scenario, dt=dt)
        case = FuzzCase(
            index=index,
            label=scenario.label,
            ok=result.ok,
            events=scenario.total_ops(),
            refined=result.refined,
            exec_time=result.fluid.exec_time,
        )
        report.cases.append(case)
        if on_case is not None:
            on_case(case)
        if not result.ok:
            report.failure = shrink(scenario, dt=dt)
            if report.failure.ok:
                # Shrinking lost the bug (flaky tolerance edge); keep
                # the original divergent result as the repro.
                report.failure = result
            if stop_on_divergence:
                break
    report.wall_time = time.perf_counter() - start
    return report
