"""Figures 1-6: class diagrams and execution traces.

The paper's trace figures are PARAVER screenshots; ours are ASCII Gantt
charts (``#`` compute, ``.`` wait) rendered from the same trace data,
plus the ``.prv`` export for tooling.  Figure 1 is the scheduling-class
diagram, regenerated from the live kernel's class list; Figure 2 is a
single-task iteration timeline.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments import btmz, metbench, metbenchvar, siesta
from repro.experiments.common import build_kernel
from repro.experiments.registry import register
from repro.hpcsched import attach_hpcsched
from repro.trace.gantt import render_gantt
from repro.trace.records import State


@register("fig1")
def figure1(**_kwargs) -> Dict[str, str]:
    """Scheduling classes of the standard and HPCSched kernels."""
    std = build_kernel()
    hpc = build_kernel()
    attach_hpcsched(hpc)

    def diagram(kernel, label):
        rows = [label]
        for i, cls in enumerate(kernel.classes):
            policies = ", ".join(sorted(p.name for p in cls.policies)) or "-"
            rows.append(f"  {i + 1}. {cls.name:<6} [{policies}]")
        return "\n".join(rows)

    return {
        "standard": diagram(std, "a) Standard Linux Scheduling Classes"),
        "hpcsched": diagram(hpc, "b) HPCSched Scheduling Classes"),
        "order_standard": [c.name for c in std.classes],
        "order_hpcsched": [c.name for c in hpc.classes],
    }


@register("fig2")
def figure2(iterations: int = 4, **_kwargs) -> Dict[str, object]:
    """One task's iterative behaviour: tR (compute) / tW (wait) spans."""
    res = metbench.run_one("cfs", iterations=iterations, keep_trace=True)
    tl = res.trace.by_name("P1")  # run_one returns the trace finished
    spans = [
        (iv.state.name, round(iv.start, 4), round(iv.end, 4))
        for iv in tl.intervals
        if iv.state in (State.RUNNING, State.WAITING)
    ]
    return {
        "task": "P1",
        "spans": spans,
        "gantt": render_gantt(res.trace, res.exec_time, width=90, names=["P1"]),
    }


def _trace_figure(run_one, schedulers, static_key="static", **kwargs):
    out = {}
    for sched in schedulers:
        res = run_one(sched, keep_trace=True, **kwargs)
        out[sched] = {
            "exec_time": res.exec_time,
            "gantt": render_gantt(
                res.trace,
                res.exec_time,
                width=100,
                names=[n for n in sorted(res.tasks)],
            ),
            "priority_history": res.priority_history,
        }
    return out


@register("fig3")
def figure3(iterations: Optional[int] = 12, **_kwargs):
    """MetBench traces under the four schedulers (paper Fig. 3)."""
    return _trace_figure(
        metbench.run_one, ("cfs", "static", "uniform", "adaptive"),
        iterations=iterations,
    )


@register("fig4")
def figure4(iterations: Optional[int] = 45, k: Optional[int] = 15, **_kwargs):
    """MetBenchVar traces (paper Fig. 4): reversal and re-balancing."""
    return _trace_figure(
        metbenchvar.run_one, ("cfs", "static", "uniform", "adaptive"),
        iterations=iterations, k=k,
    )


@register("fig5")
def figure5(iterations: Optional[int] = 40, **_kwargs):
    """BT-MZ traces (paper Fig. 5; the paper shows a few iterations)."""
    return _trace_figure(
        btmz.run_one, ("cfs", "static", "uniform", "adaptive"),
        iterations=iterations,
    )


@register("fig6")
def figure6(scf_steps: Optional[int] = 4, **_kwargs):
    """SIESTA traces (paper Fig. 6: standard, Uniform, Adaptive)."""
    return _trace_figure(
        siesta.run_one, ("cfs", "uniform", "adaptive"), scf_steps=scf_steps
    )
