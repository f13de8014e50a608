"""The differential harness: agreement, mismatch detection, tolerance."""

import pytest

from repro.validate.differential import (
    Divergence,
    _first_mismatch,
    _tolerance,
    run_differential,
)
from repro.validate.reference import ReferenceResult
from repro.validate.scenario import (
    BarrierOp,
    ComputeOp,
    KernelRunResult,
    Scenario,
    SetPrioOp,
    SleepOp,
    TaskSpec,
)

SMOKE = Scenario(
    tasks=(
        TaskSpec(
            "A", 0,
            (ComputeOp(0.02), BarrierOp(0), ComputeOp(0.01), SetPrioOp(6),
             ComputeOp(0.02)),
            "cpu_bound", 4,
        ),
        TaskSpec(
            "B", 1,
            (ComputeOp(0.05), BarrierOp(0), SleepOp(0.001), ComputeOp(0.03)),
            "mixed", 5,
        ),
        TaskSpec("C", 2, (SleepOp(0.002), ComputeOp(0.04)), "mem_bound", 4),
    ),
    label="smoke",
)


def test_engines_agree_on_smoke_scenario():
    res = run_differential(SMOKE)
    assert res.ok, res.divergence and res.divergence.describe()
    # Both engines produced a complete log for every task.
    for spec in SMOKE.tasks:
        assert len(res.fluid.logs[spec.name]) == len(spec.ops)
        assert len(res.reference.logs[spec.name]) == len(spec.ops)


def test_engines_agree_on_smt_sibling_pair():
    s = Scenario(
        tasks=(
            TaskSpec("A", 0, (ComputeOp(0.01), SetPrioOp(2), ComputeOp(0.01))),
            TaskSpec("B", 1, (ComputeOp(0.015), SleepOp(0.002), ComputeOp(0.01))),
        )
    )
    assert run_differential(s).ok


def test_tolerance_scales_with_ops_and_dt():
    small = Scenario(tasks=(TaskSpec("A", 0, (ComputeOp(0.01),)),))
    assert _tolerance(small, 2e-5) < _tolerance(SMOKE, 2e-5)
    assert _tolerance(SMOKE, 1e-5) < _tolerance(SMOKE, 2e-5)


def _synthetic(logs_f, logs_r, scenario):
    fluid = KernelRunResult(logs=logs_f)
    ref = ReferenceResult(logs=logs_r, intervals={}, exec_time=0.0, steps=0)
    return fluid, ref, scenario


def test_first_mismatch_picks_earliest_divergent_event():
    s = Scenario(
        tasks=(
            TaskSpec("A", 0, (ComputeOp(0.01), ComputeOp(0.01))),
            TaskSpec("B", 2, (ComputeOp(0.01),)),
        )
    )
    fluid, ref, s = _synthetic(
        {"A": [(0, 1.0), (1, 9.0)], "B": [(0, 2.0)]},
        {"A": [(0, 1.0), (1, 2.5)], "B": [(0, 5.0)]},
        s,
    )
    # B diverges at t=2.0 (earlier than A's divergence at t=2.5).
    name, index, ft, rt = _first_mismatch(fluid, ref, s, tol=0.1)
    assert (name, index) == ("B", 0)
    assert (ft, rt) == (2.0, 5.0)


def test_first_mismatch_flags_missing_events_as_infinite():
    s = Scenario(tasks=(TaskSpec("A", 0, (ComputeOp(0.01), ComputeOp(0.01))),))
    fluid, ref, s = _synthetic(
        {"A": [(0, 1.0)]},
        {"A": [(0, 1.0), (1, 2.0)]},
        s,
    )
    name, index, ft, rt = _first_mismatch(fluid, ref, s, tol=0.1)
    assert (name, index) == ("A", 1)
    assert ft == float("inf") and rt == 2.0


def test_first_mismatch_none_when_within_tolerance():
    s = Scenario(tasks=(TaskSpec("A", 0, (ComputeOp(0.01),)),))
    fluid, ref, s = _synthetic(
        {"A": [(0, 1.00001)]}, {"A": [(0, 1.0)]}, s
    )
    assert _first_mismatch(fluid, ref, s, tol=0.1) is None


def test_divergence_describe_mentions_times_and_delta():
    d = Divergence(
        task="A", op_index=3, op="compute(0.01)",
        fluid_time=1.5, reference_time=1.0, tolerance=0.01,
    )
    assert d.delta == pytest.approx(0.5)
    text = d.describe()
    assert "A" in text and "op[3]" in text and "compute(0.01)" in text


def test_refinement_absorbs_quantization_past_the_budget(monkeypatch):
    """When quantization alone exceeds the a-priori budget (simulated
    here by shrinking the budget below one quantum), the refinement
    pass must classify the delta as quantization — it shrinks with dt —
    instead of reporting a false divergence."""
    import repro.validate.differential as differential

    monkeypatch.setattr(differential, "_TOL_PER_TRANSITION", 0.0)
    monkeypatch.setattr(differential, "_TOL_FLOOR_QUANTA", 0.05)
    s = Scenario(
        tasks=(
            TaskSpec("A", 0, (ComputeOp(0.01),)),
            TaskSpec("B", 1, (ComputeOp(0.03),)),
        )
    )
    res = run_differential(s, dt=2e-3)
    assert res.ok
    assert res.refined
