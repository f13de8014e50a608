"""Ablation: nice() versus hardware priorities on MetBench.

nice redistributes CPU *time* among runqueue peers; with one MPI rank
per logical CPU there is nothing to redistribute — the imbalance sits
between the two SMT contexts of a core, which only the POWER5 hardware
priority can bias.  The paper's core insight in one table.
"""

import pytest

from repro.experiments.nice_ablation import run_ablation_nice


def test_ablation_nice_vs_hardware_priorities():
    out = run_ablation_nice(iterations=20)
    base = out["cfs"]
    print()
    print(f"{'config':<22}{'exec':>9}{'gain':>8}")
    for key, res in out.items():
        label = {
            "cfs": "CFS baseline",
            "nice": f"CFS + nice(-15) big",
            "uniform": "HPCSched (hw prio)",
        }[key]
        print(f"{label:<22}{res.exec_time:>8.2f}s"
              f"{res.improvement_over(base):>7.1f}%")

    # nice is a strict no-op: one rank per CPU, nothing shares a runqueue
    assert out["nice"].exec_time == pytest.approx(base.exec_time, rel=1e-6)
    # hardware prioritization is not
    assert out["uniform"].improvement_over(base) > 9.0
