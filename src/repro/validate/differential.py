"""Differential oracle: fluid-rate engine vs. brute-force reference.

:func:`run_differential` executes one scenario through both engines and
compares their per-task **event logs** (the simulated time at which
every program op completed).  The reference quantizes transitions to its
time step, so the two logs legitimately differ by ``O(dt)`` per
transition; the harness handles that in two layers:

1. a conservative *a-priori* tolerance proportional to ``dt`` and the
   number of transitions in the scenario, and
2. a *refinement check* for anything that exceeds it: the reference is
   re-run with a 5x smaller quantum — genuine quantization error
   shrinks roughly linearly with ``dt``, while a real engine defect
   (e.g. mis-banked progress) stays put.  Only a persistent delta is
   reported as a divergence.

:func:`shrink` minimizes a divergent scenario: it truncates every
program to the prefix around the first divergent event, then greedily
drops whole tasks and then individual ops while the divergence
persists — the result is the smallest scenario (and the first divergent
event inside it) to debug.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.validate.reference import ReferenceResult, ReferenceSimulator
from repro.validate.scenario import (
    KernelRunResult,
    Scenario,
    build_kernel_run,
    truncate_ops,
    without_task,
)

#: Per-transition tolerance multiplier: every transition (op completion,
#: wake, priority write) can land up to one quantum late in the
#: reference, and a mis-quantized transition shifts downstream
#: completions by a bounded multiple of ``dt``.  The budget is kept
#: deliberately *tight* — measured quantization error sits well under
#: one unit of it — because a tight budget is what gives the harness its
#: sensitivity to small engine defects; legitimate overruns on long
#: rate-chains are absorbed by the refinement check instead.
_TOL_PER_TRANSITION = 1.5
_TOL_FLOOR_QUANTA = 10.0
#: Refinement: quantization error must shrink at least this factor when
#: dt shrinks 5x; engine bugs do not shrink at all.
_REFINE_DT_RATIO = 5.0
_REFINE_SHRINK_FACTOR = 2.0


@dataclass(frozen=True)
class Divergence:
    """The first event on which the two engines disagree."""

    task: str
    op_index: int
    op: str
    fluid_time: float
    reference_time: float
    tolerance: float

    @property
    def delta(self) -> float:
        return abs(self.fluid_time - self.reference_time)

    def describe(self) -> str:
        """One-line report of the divergent event and its delta."""
        return (
            f"first divergent event: {self.task} op[{self.op_index}] {self.op} "
            f"fluid={self.fluid_time:.9f}s reference={self.reference_time:.9f}s "
            f"|delta|={self.delta:.3e}s > tol={self.tolerance:.3e}s"
        )


@dataclass
class DifferentialResult:
    """Outcome of one scenario comparison."""

    scenario: Scenario
    divergence: Optional[Divergence]
    fluid: KernelRunResult
    reference: ReferenceResult
    refined: bool = False

    @property
    def ok(self) -> bool:
        return self.divergence is None


def _tolerance(scenario: Scenario, dt: float) -> float:
    return dt * (
        _TOL_PER_TRANSITION * scenario.total_ops() + _TOL_FLOOR_QUANTA
    )


def _first_mismatch(
    fluid: KernelRunResult,
    reference: ReferenceResult,
    scenario: Scenario,
    tol: float,
) -> Optional[Tuple[str, int, float, float]]:
    """Earliest (by fluid time) event whose times differ beyond ``tol``,
    or a structural mismatch (missing/extra events)."""
    worst: Optional[Tuple[float, str, int, float, float]] = None
    for spec in scenario.tasks:
        flog = fluid.logs.get(spec.name, [])
        rlog = reference.logs.get(spec.name, [])
        for i in range(max(len(flog), len(rlog))):
            if i >= len(flog) or i >= len(rlog):
                # One engine never completed this op: infinite delta.
                ft = flog[i][1] if i < len(flog) else float("inf")
                rt = rlog[i][1] if i < len(rlog) else float("inf")
                cand = (min(ft, rt), spec.name, i, ft, rt)
                if worst is None or cand[0] < worst[0]:
                    worst = cand
                break
            (fi, ft), (ri, rt) = flog[i], rlog[i]
            assert fi == ri == i, "event logs must be dense op-index sequences"
            if abs(ft - rt) > tol:
                cand = (min(ft, rt), spec.name, i, ft, rt)
                if worst is None or cand[0] < worst[0]:
                    worst = cand
                break
    if worst is None:
        return None
    _, name, index, ft, rt = worst
    return (name, index, ft, rt)


def run_differential(
    scenario: Scenario,
    dt: float = 2e-5,
    refine: bool = True,
    mutate_task=None,
) -> DifferentialResult:
    """Run ``scenario`` through both engines and compare event logs.

    ``mutate_task`` is forwarded to :func:`build_kernel_run` (mutation
    testing of the fluid engine).  With ``refine=True`` a suspected
    divergence is re-checked against a 5x finer reference before being
    reported, which separates quantization error from engine defects.
    """
    fluid = build_kernel_run(scenario, mutate_task=mutate_task)
    reference = ReferenceSimulator(scenario, dt=dt).run()
    tol = _tolerance(scenario, dt)
    mismatch = _first_mismatch(fluid, reference, scenario, tol)
    refined = False
    if mismatch is not None and refine:
        fine_dt = dt / _REFINE_DT_RATIO
        fine_ref = ReferenceSimulator(scenario, dt=fine_dt).run()
        fine_tol = _tolerance(scenario, fine_dt)
        fine_mismatch = _first_mismatch(fluid, fine_ref, scenario, fine_tol)
        refined = True
        if fine_mismatch is None:
            # The delta collapsed with dt: quantization, not a bug.
            return DifferentialResult(scenario, None, fluid, fine_ref, refined)
        name, index, ft, rt = mismatch
        fname, findex, fft, frt = fine_mismatch
        coarse_delta = abs(ft - rt) if ft != float("inf") else float("inf")
        fine_delta = abs(fft - frt) if fft != float("inf") else float("inf")
        if (
            fine_delta != float("inf")
            and coarse_delta != float("inf")
            and fine_delta * _REFINE_SHRINK_FACTOR <= coarse_delta
        ):
            # Still shrinking linearly with dt: quantization tail that
            # outran the linear budget (long rate-chains); accept.
            return DifferentialResult(scenario, None, fluid, fine_ref, refined)
        mismatch, reference, tol = fine_mismatch, fine_ref, fine_tol
    if mismatch is None:
        return DifferentialResult(scenario, None, fluid, reference, refined)
    name, index, ft, rt = mismatch
    spec = next(t for t in scenario.tasks if t.name == name)
    op_desc = (
        spec.ops[index].describe() if index < len(spec.ops) else "<missing>"
    )
    divergence = Divergence(
        task=name,
        op_index=index,
        op=op_desc,
        fluid_time=ft,
        reference_time=rt,
        tolerance=tol,
    )
    return DifferentialResult(scenario, divergence, fluid, reference, refined)


# ----------------------------------------------------------------------
# Minimizing shrinker
# ----------------------------------------------------------------------
def shrink(
    scenario: Scenario,
    dt: float = 2e-5,
    mutate_task=None,
    max_attempts: int = 200,
) -> DifferentialResult:
    """Reduce a divergent scenario to a minimal divergent scenario.

    Strategy (each step keeps the candidate only if it still diverges):

    1. truncate every program just past the first divergent event,
    2. greedily remove whole tasks,
    3. greedily remove single ops from each surviving program.

    Returns the differential result of the minimized scenario (whose
    ``divergence`` is the minimized first divergent event).  If the
    input scenario does not diverge it is returned unchanged.
    """
    attempts = 0

    def check(cand: Scenario) -> Optional[DifferentialResult]:
        nonlocal attempts
        if attempts >= max_attempts:
            return None
        attempts += 1
        try:
            res = run_differential(cand, dt=dt, mutate_task=mutate_task)
        except Exception:
            return None  # degenerate candidate (deadlock, ...): discard
        return res if not res.ok else None

    current = run_differential(scenario, dt=dt, mutate_task=mutate_task)
    if current.ok:
        return current

    # 1. Truncate programs just past the divergence point.
    div = current.divergence
    assert div is not None
    limits = {t.name: len(t.ops) for t in scenario.tasks}
    limits[div.task] = div.op_index + 1
    cand = truncate_ops(current.scenario, limits)
    res = check(cand)
    if res is not None:
        current = res

    # Global tail-shortening: halve every program while it still fails.
    while True:
        longest = max(len(t.ops) for t in current.scenario.tasks)
        if longest <= 1:
            break
        limits = {
            t.name: max(1, len(t.ops) // 2) for t in current.scenario.tasks
        }
        res = check(truncate_ops(current.scenario, limits))
        if res is None:
            break
        current = res

    # 2. Remove whole tasks.
    progress = True
    while progress:
        progress = False
        for spec in list(current.scenario.tasks):
            if len(current.scenario.tasks) <= 1:
                break
            res = check(without_task(current.scenario, spec.name))
            if res is not None:
                current = res
                progress = True
                break

    # 3. Remove individual ops.
    progress = True
    while progress:
        progress = False
        for spec in current.scenario.tasks:
            for i in range(len(spec.ops)):
                pruned = replace(
                    spec, ops=spec.ops[:i] + spec.ops[i + 1:]
                )
                tasks = tuple(
                    pruned if t.name == spec.name else t
                    for t in current.scenario.tasks
                )
                cand = replace(current.scenario, tasks=tasks)
                try:
                    cand.validate()
                except ValueError:
                    continue
                res = check(cand)
                if res is not None:
                    current = res
                    progress = True
                    break
            if progress:
                break

    final = replace(
        current.scenario,
        label=(scenario.label + "+shrunk") if scenario.label else "shrunk",
    )
    return run_differential(final, dt=dt, mutate_task=mutate_task)
