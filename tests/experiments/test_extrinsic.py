"""Extrinsic-imbalance (OS noise shielding) experiment tests."""

import pytest

from repro.experiments.extrinsic import run_extrinsic, run_one


@pytest.fixture(scope="module")
def out():
    return run_extrinsic(iterations=10)


def test_noise_creates_extrinsic_imbalance_under_cfs(out):
    base = out["cfs"]
    # the afflicted rank computes ~100%, the clean ranks wait for it
    assert base.tasks["P1"].pct_comp > 99.0
    clean = [base.tasks[n].pct_comp for n in ("P2", "P3", "P4")]
    assert all(c < 95.0 for c in clean)


def test_hpcsched_shields_from_noise(out):
    base = out["cfs"]
    for sched in ("uniform", "adaptive"):
        gain = out[sched].improvement_over(base)
        assert gain > 5.0, f"{sched}: {gain}"
        # the application returns to (near-)perfect balance
        comps = [out[sched].tasks[n].pct_comp for n in out[sched].tasks]
        assert min(comps) > 99.0


def test_priorities_end_equal(out):
    """The gain is class ordering, not prioritization: whatever level
    the detector settles on, all workers share it."""
    uni = out["uniform"]
    finals = set()
    for name, hist in uni.priority_history.items():
        finals.add(hist[-1][1] if hist else 4)
    assert len(finals) == 1


def test_single_run_helper():
    res = run_one("cfs", iterations=3, keep_trace=True)
    assert res.workload == "metbench-extrinsic"
    assert res.trace is not None


@pytest.mark.parametrize("sched", ["cfs", "adaptive"])
def test_unkept_run_returns_what_a_kept_run_does(sched):
    """Without the kernel and trace in the result, the run skips PMU
    attribution and the raw event log; what it returns is unchanged."""
    kept = run_one(sched, iterations=4, keep_trace=True)
    unkept = run_one(sched, iterations=4, keep_trace=False)
    assert unkept.trace is None and unkept.kernel is None
    assert unkept.exec_time == kept.exec_time
    assert unkept.tasks == kept.tasks
    assert unkept.priority_history == kept.priority_history
    assert unkept.priority_changes == kept.priority_changes
