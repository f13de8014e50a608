"""Ablation: performance-model choice — mechanism strength matters.

The experiments use the calibrated :class:`TableDrivenModel` (backed by
the paper's measured numbers: +2 priority ≈ 95% of the ST-mode
speedup).  Swapping in the analytic :class:`DecodeShareModel` (Amdahl
split on the decode share only) weakens the mechanism: +2 now buys just
~1.69x while ST mode still buys 2.1x — and balancing *loses* to simply
letting the fast worker sprint alone in ST mode after its sibling
blocks.

That sign flip is the point of this ablation: whether priority-based
balancing wins depends on the prioritized-SMT speedup approaching the
ST-mode speedup, which the POWER5's measured behaviour (and hence the
calibrated table) satisfies but a pure decode-share argument does not.
The detector itself behaves identically under both models (same two
decisions, balance reached).
"""

import pytest

from repro.experiments.common import run_experiment
from repro.power5.perfmodel import DecodeShareModel, TableDrivenModel
from repro.workloads.metbench import MetBench


def _run():
    out = {}
    for model_name, model_cls in (
        ("table", TableDrivenModel),
        ("decode-share", DecodeShareModel),
    ):
        for sched in ("cfs", "uniform"):
            out[(model_name, sched)] = run_experiment(
                MetBench(iterations=20),
                sched,
                perf_model=model_cls(),
                keep_trace=False,
            )
    return out


def test_ablation_perfmodel():
    out = _run()
    print()
    print(f"{'model':<14}{'cfs':>9}{'uniform':>10}{'gain':>8}")
    gains = {}
    for model in ("table", "decode-share"):
        base = out[(model, "cfs")]
        uni = out[(model, "uniform")]
        gains[model] = uni.improvement_over(base)
        print(f"{model:<14}{base.exec_time:>8.2f}s{uni.exec_time:>9.2f}s"
              f"{gains[model]:>7.1f}%")

    for model in ("table", "decode-share"):
        base = out[(model, "cfs")]
        uni = out[(model, "uniform")]
        # the scheduler behaves identically: same decisions, utils rise
        assert uni.priority_changes == 2, model
        assert base.tasks["P1"].pct_comp < 40, model
        assert uni.tasks["P1"].pct_comp > base.tasks["P1"].pct_comp + 20, model

    # the calibrated mechanism wins; the weak analytic one loses to the
    # ST-mode sprint — the sign flip this ablation demonstrates
    assert gains["table"] > 9.0
    assert gains["decode-share"] < gains["table"]
    assert gains["decode-share"] < 0.0
