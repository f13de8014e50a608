"""CampaignSpec/RunSpec: expansion, identity, invocation glue."""

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    RunSpec,
    builtin_campaign,
    canonical_json,
    expand_matrix,
    filter_kwargs,
    invoke,
    iter_experiment_results,
    result_from_payload,
    summarize_result,
)
from repro.experiments.common import ExperimentResult, TaskResult


def test_matrix_expansion_counts():
    camp = expand_matrix(
        "m",
        ["table3", "fig1"],
        seeds=[0, 1, 2],
        grid={"iterations": [2, 4]},
    )
    assert len(camp.runs) == 2 * 3 * 2
    # every cell unique
    assert len({r.run_id for r in camp.runs}) == len(camp.runs)


def test_run_id_stable_and_param_sensitive():
    a = RunSpec("table3", params={"iterations": 4}, seed=1)
    b = RunSpec("table3", params={"iterations": 4}, seed=1)
    c = RunSpec("table3", params={"iterations": 5}, seed=1)
    d = RunSpec("table3", params={"iterations": 4}, seed=2)
    assert a.run_id == b.run_id
    assert a.run_id != c.run_id
    assert a.run_id != d.run_id
    assert a.run_id.startswith("table3-")


def test_payload_round_trip():
    spec = RunSpec("x", params={"k": 3}, seed=7, runner="m:f")
    clone = RunSpec.from_payload(spec.to_payload())
    assert clone == spec
    # Manifests written while runs carried a per-run timeout still load;
    # the key is ignored.
    old_entry = dict(spec.to_payload(), timeout=1.5)
    assert RunSpec.from_payload(old_entry) == spec


def test_canonical_json_is_order_independent():
    assert canonical_json({"b": 1, "a": [1.5, 2]}) == canonical_json(
        {"a": [1.5, 2], "b": 1}
    )


def test_filter_kwargs_drops_unknown():
    def fn(a, b=2):
        return a + b

    accepted, dropped = filter_kwargs(fn, {"a": 1, "b": 2, "zz": 3})
    assert accepted == {"a": 1, "b": 2}
    assert dropped == ["zz"]


def test_filter_kwargs_var_keyword_accepts_all():
    def fn(**kw):
        return kw

    accepted, dropped = filter_kwargs(fn, {"anything": 1})
    assert accepted == {"anything": 1} and dropped == []


def test_invoke_stub_by_dotted_path():
    spec = RunSpec(
        "stub", params={"value": 2.0}, seed=3,
        runner="tests.campaign.stubs:ok_run",
    )
    result, dropped = invoke(spec)
    assert result == {"seed": 3, "value": 7.0, "tag": "x"}
    assert dropped == []


def test_invoke_unknown_experiment_raises_keyerror():
    with pytest.raises(KeyError, match="unknown experiment"):
        invoke(RunSpec("nope"))


def test_builtin_campaigns_cover_registry():
    from repro.experiments.registry import all_ids

    full = builtin_campaign("paper-full")
    assert sorted(r.experiment for r in full.runs) == all_ids()
    quick = builtin_campaign("paper-quick")
    assert len(quick.runs) == len(full.runs)
    assert builtin_campaign("smoke").runs
    with pytest.raises(KeyError):
        builtin_campaign("nope")
    assert isinstance(full, CampaignSpec) and full.digest != quick.digest


def test_synth_presets_expand_the_feasible_grid():
    from repro.campaign.spec import (
        BUILTIN_CAMPAIGNS,
        QUICK_PARAMS,
        SWEEP_IMBALANCES,
        SWEEP_RANKS,
    )
    from repro.workloads.synth import unbalanced_sweep

    assert "synth-sweep" in BUILTIN_CAMPAIGNS
    assert "synth-convergence" in BUILTIN_CAMPAIGNS

    sweep = builtin_campaign("synth-sweep")
    grid = unbalanced_sweep(SWEEP_IMBALANCES, SWEEP_RANKS)
    assert len(sweep.runs) == len(grid)
    assert all(r.experiment == "synth_scatter" for r in sweep.runs)
    assert {(r.params["imbalance"], r.params["ranks"]) for r in sweep.runs} == {
        (c["imbalance"], c["ranks"]) for c in grid
    }

    conv = builtin_campaign("synth-convergence")
    assert all(r.experiment == "synth_convergence" for r in conv.runs)
    assert {r.params["ranks"] for r in conv.runs} == {16, 64}
    assert all(r.params["revert_at"] == 9 for r in conv.runs)

    # Every synth experiment has a quick-mode downscale, and the quick
    # params are actually accepted by the registered runner.
    from repro.experiments.registry import EXPERIMENTS

    for exp in (
        "synth_scatter",
        "synth_convergence",
        "synth_sweep",
        "synth_offload",
        "synth_local_bad",
    ):
        assert exp in QUICK_PARAMS
        accepted, dropped = filter_kwargs(EXPERIMENTS[exp], QUICK_PARAMS[exp])
        assert dropped == []
        assert accepted == QUICK_PARAMS[exp]


def test_summarize_and_restore_experiment_result():
    res = ExperimentResult(workload="w", scheduler="uniform", exec_time=3.25)
    res.tasks["P1"] = TaskResult(
        name="P1", pct_comp=95.0, pct_running=80.0, priority=None,
        running=1.0, waiting=0.5, ready=0.25,
    )
    res.priority_history["P1"] = [(0.0, 4), (1.0, 6)]
    payload = summarize_result({"uniform": res, "note": "hi"})
    # JSON-able end to end
    canonical_json(payload)
    restored = result_from_payload(payload)
    back = restored["uniform"]
    assert isinstance(back, ExperimentResult)
    assert back.exec_time == 3.25
    assert back.tasks["P1"].pct_comp == 95.0
    assert back.priority_history["P1"] == [(0.0, 4), (1.0, 6)]
    assert restored["note"] == "hi"
    assert len(list(iter_experiment_results(payload))) == 1
