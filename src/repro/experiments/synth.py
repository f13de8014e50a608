"""Synthetic-generator experiments: imbalance sweeps + reaction speed.

Four registered runners over :mod:`repro.workloads.synth`:

* ``synth_scatter`` — :class:`SyntheticScatter` at one (imbalance,
  ranks) point under the requested schedulers;
* ``synth_convergence`` — :class:`SyntheticConvergence` step change,
  reporting :mod:`repro.analysis.convergence` time-to-threshold
  metrics per scheduler (the paper-style claim becomes measurable:
  *how fast* does Adaptive rebalance versus Uniform?);
* ``synth_sweep`` — the :func:`unbalanced_sweep` grid in one run
  (campaigns usually prefer the ``synth-sweep`` preset, which expands
  the grid into separately cached cells);
* ``synth_offload`` / ``synth_local_bad`` — the stressors.

Each runner returns campaign-serializable values: plain dicts of
:class:`~repro.experiments.common.ExperimentResult` plus (for
convergence) ``ConvergenceMetrics.to_payload()`` dicts.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.analysis.convergence import (
    auto_eps,
    convergence_metrics,
    epoch_samples,
)
from repro.experiments.common import ExperimentResult, run_experiment
from repro.experiments.registry import register
from repro.workloads.synth import (
    LocalBad,
    OffloadLatency,
    SyntheticConvergence,
    SyntheticScatter,
    unbalanced_sweep,
)

#: Schedulers the synth experiments compare by default: the baseline
#: plus the paper's two dynamic heuristics.
DEFAULT_SCHEDULERS = ("cfs", "uniform", "adaptive")


def _run_all(
    make_workload, schedulers: Sequence[str], keep_trace: bool
) -> Dict[str, ExperimentResult]:
    out: Dict[str, ExperimentResult] = {}
    for sched in schedulers:
        workload = make_workload()
        out[sched] = run_experiment(
            workload,
            sched,
            topology=workload.topology(),
            keep_trace=keep_trace,
        )
    return out


@register("synth_scatter")
def run_synth_scatter(
    imbalance: float = 2.0,
    ranks: int = 8,
    iterations: int = 10,
    mean_work: float = 1.0,
    seed: int = 0,
    placement: str = "paired",
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    keep_trace: bool = False,
) -> Dict[str, ExperimentResult]:
    """One (imbalance, ranks) scatter point under each scheduler."""
    return _run_all(
        lambda: SyntheticScatter(
            imbalance=imbalance,
            ranks=ranks,
            iterations=iterations,
            mean_work=mean_work,
            seed=seed,
            placement=placement,
        ),
        schedulers,
        keep_trace,
    )


@register("synth_local_bad")
def run_synth_local_bad(
    imbalance: float = 2.0,
    ranks: int = 8,
    iterations: int = 10,
    mean_work: float = 1.0,
    seed: int = 0,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    keep_trace: bool = False,
) -> Dict[str, ExperimentResult]:
    """The pathological-placement stressor under each scheduler."""
    return _run_all(
        lambda: LocalBad(
            imbalance=imbalance,
            ranks=ranks,
            iterations=iterations,
            mean_work=mean_work,
            seed=seed,
        ),
        schedulers,
        keep_trace,
    )


@register("synth_offload")
def run_synth_offload(
    ranks: int = 8,
    iterations: int = 4,
    messages: int = 16,
    chunk_work: float = 1e-3,
    origin_work: float = 0.05,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    keep_trace: bool = False,
) -> Dict[str, ExperimentResult]:
    """The wakeup-latency stressor under each scheduler."""
    return _run_all(
        lambda: OffloadLatency(
            ranks=ranks,
            iterations=iterations,
            messages=messages,
            chunk_work=chunk_work,
            origin_work=origin_work,
        ),
        schedulers,
        keep_trace,
    )


@register("synth_convergence")
def run_synth_convergence(
    ranks: int = 16,
    imbalance: float = 1.5,
    iterations: int = 12,
    step_at: Optional[int] = None,
    revert_at: Optional[int] = None,
    mean_work: float = 1.0,
    eps: Optional[float] = None,
    schedulers: Sequence[str] = ("uniform", "adaptive"),
    keep_trace: bool = False,
) -> Dict[str, Dict[str, Any]]:
    """Step-change reaction time per scheduler.

    Per scheduler: the :class:`ExperimentResult` under ``"result"``,
    the post-step convergence metrics under ``"convergence"``, and —
    when ``revert_at`` is given — the post-reversal metrics under
    ``"reconvergence"`` (each window bounded by the next disturbance).
    Epoch ordinals are 1-based, so a step at 0-based workload iteration
    ``s`` first shows up in epoch ``s + 1``; ``after_index=s`` hands
    the analysis exactly the post-step epochs.

    ``eps=None`` (default) picks the threshold per run via
    :func:`repro.analysis.convergence.auto_eps` over the *pre-step*
    steady state — "converged" then means "recovered the balance the
    mechanism held before the disturbance", which stays meaningful at
    imbalance targets whose discrete-priority floor sits above the
    detector's 10-point band.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for sched in schedulers:
        workload = SyntheticConvergence(
            ranks=ranks,
            imbalance=imbalance,
            iterations=iterations,
            step_at=step_at,
            revert_at=revert_at,
            mean_work=mean_work,
        )
        result = run_experiment(
            workload, sched, topology=workload.topology(), keep_trace=True
        )
        samples = epoch_samples(result.trace, names=list(result.tasks))
        # Pre-step window: skip epoch 1 (the heuristic's first look at
        # the application — still unbalanced by construction).
        eps_val = (
            auto_eps(samples, after_index=1, until_index=workload.step_at)
            if eps is None
            else eps
        )
        entry: Dict[str, Any] = {
            "result": result,
            "convergence": convergence_metrics(
                samples,
                eps=eps_val,
                after_index=workload.step_at,
                until_index=workload.revert_at,
            ).to_payload(),
        }
        if workload.revert_at is not None:
            entry["reconvergence"] = convergence_metrics(
                samples, eps=eps_val, after_index=workload.revert_at
            ).to_payload()
        if not keep_trace:
            result.trace = result.kernel = result.launched = None
        out[sched] = entry
    return out


@register("synth_sweep")
def run_synth_sweep(
    imbalances: Sequence[float] = (1.0, 1.5, 2.0, 4.0),
    ranks: Sequence[int] = (4, 16, 64),
    iterations: int = 5,
    mean_work: float = 1.0,
    seed: int = 0,
    schedulers: Sequence[str] = ("cfs", "adaptive"),
    keep_trace: bool = False,
) -> Dict[str, Any]:
    """The (imbalance x rank-count) grid in a single run.

    Returns ``{"cells": [{"imbalance": I, "ranks": N, "results":
    {scheduler: ExperimentResult}}, ...]}``.  Campaign users usually
    want the ``synth-sweep`` preset instead, which expands the same
    grid into separately cached runs.  Infeasible cells are dropped
    as :func:`unbalanced_sweep` documents; a grid with no feasible cell
    raises :class:`ValueError`.
    """
    grid = unbalanced_sweep(imbalances=imbalances, ranks=ranks)
    if not grid:
        raise ValueError(
            f"no feasible cell (1 <= imbalance <= ranks) in imbalances "
            f"{list(imbalances)} x ranks {list(ranks)}"
        )
    cells = []
    for cell in grid:
        results = run_synth_scatter(
            imbalance=cell["imbalance"],
            ranks=cell["ranks"],
            iterations=iterations,
            mean_work=mean_work,
            seed=seed,
            schedulers=schedulers,
            keep_trace=keep_trace,
        )
        cells.append({**cell, "results": results})
    return {"cells": cells}
