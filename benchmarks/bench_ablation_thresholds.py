"""Ablation: the LOW_UTIL / HIGH_UTIL decision bands (paper §IV-B).

"Those boundaries are required to avoid that the scheduler changes too
quickly the priority of a task, oscillating between two possible
solutions."  Sweeps the HIGH band on MetBench: any setting below the
hot workers' utilization behaves identically (the knob is robust, not
finicky), and since a saturated worker's utilization is exactly 100%,
even the most extreme band still catches it — the detector cannot be
blinded by mis-tuning HIGH_UTIL alone.
"""

import pytest

from repro.experiments.common import run_experiment
from repro.kernel.tunables import Tunables
from repro.workloads.metbench import MetBench


def _run():
    out = {}
    for high in (70.0, 85.0, 95.0, 99.995):
        out[high] = run_experiment(
            MetBench(iterations=15),
            "uniform",
            tunables=Tunables(high_util=high),
            keep_trace=False,
        )
    out["cfs"] = run_experiment(
        MetBench(iterations=15), "cfs", keep_trace=False
    )
    return out


def test_ablation_thresholds():
    out = _run()
    base = out["cfs"]
    print()
    print(f"{'HIGH_UTIL':>10}{'exec':>9}{'gain':>8}{'changes':>9}")
    for high in (70.0, 85.0, 95.0, 99.995):
        res = out[high]
        print(f"{high:>10}{res.exec_time:>8.2f}s"
              f"{res.improvement_over(base):>7.1f}%{res.priority_changes:>9}")

    # every band catches the saturated workers and balances identically
    for high in (70.0, 85.0, 95.0, 99.995):
        assert out[high].improvement_over(base) > 9.0, high
        assert out[high].priority_changes == 2, high
    # identical decisions -> identical runs across the sweep
    execs = {round(out[h].exec_time, 9) for h in (70.0, 85.0, 95.0, 99.995)}
    assert len(execs) == 1
