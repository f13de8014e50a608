"""nice-vs-hardware-priority ablation tests."""

import pytest

from repro.experiments.nice_ablation import run_ablation_nice, run_nice


def test_nice_cannot_balance_one_rank_per_cpu():
    out = run_ablation_nice(iterations=6)
    assert out["nice"].exec_time == pytest.approx(
        out["cfs"].exec_time, rel=1e-6
    )
    assert out["uniform"].exec_time < out["cfs"].exec_time * 0.95


def test_nice_does_matter_when_sharing_a_cpu(quiet_kernel):
    """Control for the control: nice *does* redistribute when tasks
    actually share a runqueue."""
    from tests.conftest import pure_compute_program

    k = quiet_kernel
    fav = k.spawn("fav", pure_compute_program(5.0), cpu=0,
                  nice=-15)
    vic = k.spawn("vic", pure_compute_program(5.0), cpu=0,
                  nice=0)
    k.run(until=0.5)
    assert fav.sum_exec_runtime > 3 * vic.sum_exec_runtime


def test_run_nice_reports_utilizations():
    res = run_nice(iterations=4)
    assert res.scheduler == "nice"
    assert res.tasks["P1"].pct_comp < 30  # still imbalanced
    assert res.tasks["P2"].pct_comp > 99
