"""Extension bench: AMR-style drifting load (paper §II-A, [11]).

A refinement front sweeps across the ranks over 60 iterations — the
*gradual* dynamic regime (vs MetBenchVar's step reversal).  HPCSched
must re-balance every time the hot spot crosses a core boundary; the
bench asserts it tracks the drift profitably without flapping on every
iteration.
"""

import pytest

from repro.experiments.common import run_experiment
from repro.workloads.amr import AMRDrift


def _run():
    out = {}
    for sched in ("cfs", "uniform", "adaptive", "hybrid"):
        out[sched] = run_experiment(AMRDrift(), sched, keep_trace=False)
    return out


def test_amr_drift_tracking():
    out = _run()
    base = out["cfs"]
    print()
    print(f"{'scheduler':<10}{'exec':>9}{'gain':>8}{'changes':>9}")
    for sched, res in out.items():
        print(f"{sched:<10}{res.exec_time:>8.2f}s"
              f"{res.improvement_over(base):>7.1f}%"
              f"{res.priority_changes:>9}")

    for sched in ("uniform", "adaptive", "hybrid"):
        res = out[sched]
        assert res.improvement_over(base) > 2.0, sched
        # re-balanced several times (tracking) ...
        assert res.priority_changes >= 6, sched
        # ... but far less than once per iteration (no flapping)
        assert res.priority_changes < 30, sched
