"""Extension bench: extrinsic imbalance (OS noise on one CPU).

Balanced MetBench + a heavy daemon on CPU 0: the §I extrinsic-imbalance
scenario.  HPCSched's class ordering keeps the daemon off the critical
path; the detector's unanimous priority raise is a hardware no-op,
isolating the policy effect that also drives the SIESTA result.
"""

import pytest

from repro.experiments.extrinsic import run_extrinsic


def test_extrinsic_noise_shielding():
    out = run_extrinsic(iterations=20)
    print()
    base = out["cfs"]
    print(f"{'scheduler':<10}{'exec':>9}{'gain':>8}  %comp per rank")
    for sched, res in out.items():
        comps = " ".join(
            f"{res.tasks[n].pct_comp:5.1f}" for n in sorted(res.tasks)
        )
        gain = res.improvement_over(base)
        print(f"{sched:<10}{res.exec_time:>8.2f}s{gain:>7.1f}%  {comps}")

    assert base.tasks["P2"].pct_comp < 95.0  # noise-induced waiting
    for sched in ("uniform", "adaptive"):
        assert out[sched].improvement_over(base) > 5.0
        comps = [out[sched].tasks[n].pct_comp for n in out[sched].tasks]
        assert min(comps) > 99.0
