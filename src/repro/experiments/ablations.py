"""Ablations on the design choices DESIGN.md calls out.

* ``ablation_gl`` — the Adaptive G/L aggressiveness trade-off (§IV-B:
  "an aggressive heuristic quickly adapts but may over-react"), swept on
  MetBenchVar.
* ``ablation_latency`` — decomposes SIESTA's gain into the scheduling
  -policy part (HPC class with the *Null* mechanism: no hardware
  prioritization at all) and the balancing part (full HPCSched) —
  paper §V-D attributes the gain to the former.
* ``ablation_priority_range`` — why the paper caps priorities at ±2
  (§II, conclusion 2 of [4]): widen MAX_PRIO/MIN_PRIO and watch the
  de-prioritized tasks collapse.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.experiments.common import ExperimentResult, run_experiment
from repro.experiments.registry import register
from repro.hpcsched import AdaptiveHeuristic, NullMechanism, attach_hpcsched
from repro.kernel.tunables import Tunables
from repro.workloads.base import launch_workload
from repro.workloads.metbench import MetBench
from repro.workloads.metbenchvar import MetBenchVar
from repro.workloads.noise import NoiseDaemons
from repro.workloads.siesta import Siesta


@register("ablation_gl")
def ablation_gl(
    weights: Tuple[Tuple[float, float], ...] = ((1.0, 0.0), (0.5, 0.5), (0.1, 0.9)),
    iterations: int = 45,
    k: int = 15,
) -> Dict[str, ExperimentResult]:
    """Sweep the Adaptive heuristic's (G, L) weights on MetBenchVar."""
    out = {}
    for g, l in weights:
        res = run_experiment(
            MetBenchVar(iterations=iterations, k=k),
            "adaptive",
            tunables=Tunables(adaptive_g=g, adaptive_l=l),
            keep_trace=False,
        )
        out[f"G={g:.2f}/L={l:.2f}"] = res
    out["cfs"] = run_experiment(
        MetBenchVar(iterations=iterations, k=k), "cfs", keep_trace=False
    )
    return out


@register("ablation_latency")
def ablation_latency(scf_steps: Optional[int] = None) -> Dict[str, float]:
    """SIESTA: baseline CFS vs HPC-class-without-prioritization vs full
    HPCSched.  The middle bar isolates the scheduling-latency gain."""
    kwargs = {"scf_steps": scf_steps} if scf_steps else {}
    noise = NoiseDaemons()

    cfs = run_experiment(Siesta(**kwargs), "cfs", noise=noise, keep_trace=False)

    # HPC class with the Null mechanism: policy benefits only.
    from repro.experiments.common import build_kernel
    from repro.workloads.noise import spawn_noise

    kernel = build_kernel(keep_trace=False)
    attach_hpcsched(kernel, AdaptiveHeuristic(), mechanism=NullMechanism())
    spawn_noise(kernel, noise)
    launch_workload(kernel, Siesta(**kwargs), use_hpc=True)
    policy_only_time = kernel.run()

    full = run_experiment(Siesta(**kwargs), "adaptive", noise=noise, keep_trace=False)
    return {
        "cfs": cfs.exec_time,
        "hpc_policy_only": policy_only_time,
        "hpcsched_full": full.exec_time,
        "policy_gain_pct": 100.0 * (cfs.exec_time - policy_only_time) / cfs.exec_time,
        "full_gain_pct": 100.0 * (cfs.exec_time - full.exec_time) / cfs.exec_time,
    }


@register("ablation_priority_range")
def ablation_priority_range(
    ranges: Tuple[Tuple[int, int], ...] = ((4, 5), (4, 6), (3, 6), (2, 6)),
    iterations: int = 20,
) -> Dict[str, ExperimentResult]:
    """Widen the [MIN_PRIO, MAX_PRIO] window on MetBench.

    The paper confines HPCSched to [4, 6]; larger windows keep helping
    the favoured task only marginally while the de-prioritized task's
    slowdown explodes (an order of magnitude, §I)."""
    out = {}
    for lo, hi in ranges:
        res = run_experiment(
            MetBench(iterations=iterations),
            "uniform",
            tunables=Tunables(min_prio=lo, max_prio=hi),
            keep_trace=False,
        )
        out[f"[{lo},{hi}]"] = res
    out["cfs"] = run_experiment(
        MetBench(iterations=iterations), "cfs", keep_trace=False
    )
    return out
