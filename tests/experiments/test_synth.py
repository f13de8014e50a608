"""The synth experiment runners: registration, shapes, convergence
payloads, and campaign serializability."""

import json

import pytest

from repro.campaign.spec import summarize_result
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import all_ids, run_by_id
from repro.experiments.synth import (
    run_synth_convergence,
    run_synth_offload,
    run_synth_scatter,
    run_synth_sweep,
)

SMALL = {"ranks": 4, "iterations": 3}


def test_synth_runners_are_registered():
    ids = all_ids()
    for required in (
        "synth_scatter",
        "synth_convergence",
        "synth_sweep",
        "synth_offload",
        "synth_local_bad",
    ):
        assert required in ids


def test_scatter_returns_one_result_per_scheduler():
    out = run_synth_scatter(imbalance=2.0, schedulers=("cfs", "adaptive"), **SMALL)
    assert set(out) == {"cfs", "adaptive"}
    for result in out.values():
        assert isinstance(result, ExperimentResult)
        assert result.exec_time > 0
        assert result.trace is None  # keep_trace defaults off
    # The dynamic heuristic must not lose to the baseline on the
    # fixable (paired) placement.
    assert out["adaptive"].exec_time <= out["cfs"].exec_time * (1 + 1e-9)


def test_local_bad_dispatches_through_the_registry():
    out = run_by_id("synth_local_bad", schedulers=("cfs",), **SMALL)
    assert set(out) == {"cfs"}


def test_offload_shapes():
    out = run_synth_offload(
        ranks=4, iterations=2, messages=3, schedulers=("cfs", "uniform")
    )
    assert set(out) == {"cfs", "uniform"}
    assert all(r.exec_time > 0 for r in out.values())


def test_convergence_reports_metrics_per_scheduler():
    out = run_synth_convergence(
        ranks=4, iterations=8, revert_at=6, schedulers=("adaptive",)
    )
    entry = out["adaptive"]
    assert set(entry) == {"result", "convergence", "reconvergence"}
    conv = entry["convergence"]
    # Auto-eps mode: the threshold comes from the pre-step floor, never
    # below the detector's own 10-point band.
    assert conv["eps"] >= 10.0
    assert conv["converged"]
    assert conv["epochs"] >= 1
    assert conv["sim_time"] > 0
    assert entry["reconvergence"]["converged"]
    # Traces are dropped unless requested.
    assert entry["result"].trace is None
    kept = run_synth_convergence(
        ranks=4, iterations=6, schedulers=("adaptive",), keep_trace=True
    )
    assert kept["adaptive"]["result"].trace is not None
    assert "reconvergence" not in kept["adaptive"]  # no revert_at


def test_convergence_honors_an_explicit_eps():
    out = run_synth_convergence(
        ranks=4, iterations=6, eps=150.0, schedulers=("uniform",)
    )
    conv = out["uniform"]["convergence"]
    assert conv["eps"] == 150.0
    assert conv["converged"]  # 150 points can't be exceeded


def test_sweep_covers_the_feasible_grid():
    out = run_synth_sweep(
        imbalances=(1.0, 4.0),
        ranks=(2, 4),
        iterations=2,
        schedulers=("cfs",),
    )
    cells = out["cells"]
    assert [(c["imbalance"], c["ranks"]) for c in cells] == [
        (1.0, 2),
        (1.0, 4),
        (4.0, 4),  # (4.0, 2) infeasible, dropped
    ]
    for c in cells:
        assert set(c["results"]) == {"cfs"}


def test_synth_results_are_campaign_serializable():
    out = run_synth_convergence(ranks=4, iterations=6, schedulers=("adaptive",))
    summary = summarize_result(out)
    text = json.dumps(summary)  # must not raise
    round_trip = json.loads(text)
    assert round_trip["adaptive"]["convergence"]["converged"] is True


def _synth_events(workload) -> int:
    from repro.experiments.common import run_experiment

    result = run_experiment(
        workload, "adaptive", topology=workload.topology(), keep_trace=True
    )
    return result.kernel.sim.events_processed


def test_synth_scatter_replays_identical_event_count():
    from repro.workloads.synth import SyntheticScatter

    def make():
        return SyntheticScatter(imbalance=2.0, ranks=8, iterations=2)

    first = _synth_events(make())
    assert first > 0
    assert _synth_events(make()) == first


def test_synth_convergence_replays_identical_event_count():
    from repro.workloads.synth import SyntheticConvergence

    def make():
        return SyntheticConvergence(ranks=8, iterations=8, revert_at=6)

    first = _synth_events(make())
    assert first > 0
    assert _synth_events(make()) == first
