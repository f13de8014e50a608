"""CLI tests."""

import pytest

from repro.cli import main


def test_list_prints_ids(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table3" in out and "fig4" in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "table1" in capsys.readouterr().out


def test_run_table1(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "table1_exact: True" in out


def test_run_fig1(capsys):
    assert main(["run", "fig1"]) == 0
    out = capsys.readouterr().out
    assert "hpc" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


@pytest.mark.slow
def test_report_quick(capsys):
    assert main(["report", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Tables I/II: exact" in out
    for exp in ("table3", "table4", "table5", "table6"):
        assert exp in out


def test_run_table3_with_iterations(capsys):
    assert main(["run", "table3", "--iterations", "4"]) == 0
    out = capsys.readouterr().out
    assert "Baseline 2.6.24" in out
    assert "vs. paper" in out
    assert "improvement uniform over cfs" in out


@pytest.mark.parametrize("iterations", ["0", "-1"])
@pytest.mark.parametrize("experiment", ["table3", "table4", "table5", "amr"])
def test_run_rejects_fewer_than_one_iteration(capsys, experiment, iterations):
    assert main(["run", experiment, "--iterations", iterations]) == 2
    captured = capsys.readouterr()
    assert f"need at least one iteration, got {iterations}" in captured.err
    assert captured.out == ""


def test_cluster_both_placements(capsys):
    assert main(["cluster", "--nodes", "2", "--iterations", "1"]) == 0
    out = capsys.readouterr().out
    assert "2 nodes x 4 CPUs" in out
    assert "block" in out and "gang" in out
    assert "gang speedup over block" in out


def test_cluster_single_placement(capsys):
    assert main([
        "cluster", "--nodes", "2", "--iterations", "1",
        "--placement", "gang", "--ranks", "8",
    ]) == 0
    out = capsys.readouterr().out
    assert "8 ranks" in out
    assert "gang" in out and "speedup" not in out


def test_cluster_rejects_zero_ranks(capsys):
    assert main(["cluster", "--nodes", "2", "--ranks", "0"]) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("iterations", ["0", "-2"])
def test_cluster_rejects_fewer_than_one_iteration(capsys, iterations):
    assert main(["cluster", "--nodes", "2", "--iterations", iterations]) == 2
    captured = capsys.readouterr()
    assert "iteration" in captured.err
    assert "exec" not in captured.out


def test_cluster_json_reports_the_serial_run(capsys):
    import json

    from repro.cluster.experiment import ladder_loads, run_cluster

    assert main(["cluster", "--nodes", "2", "--iterations", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {
        "nodes", "ranks", "iterations", "hpcsched", "placements",
        "gang_speedup_over_block",
    }
    for strategy in ("block", "gang"):
        entry = data["placements"][strategy]
        assert set(entry) == {
            "exec_time", "node_load_spread", "events", "rank_exit",
        }
        lib = run_cluster(strategy, loads=ladder_loads(8), iterations=1)
        assert entry["exec_time"] == lib.exec_time
        assert entry["events"] == lib.events
        assert entry["rank_exit"] == {
            str(r): t for r, t in sorted(lib.rank_exit.items())
        }


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--quick"],
        ["cluster", "--shards", "2"],
        ["cluster", "--workers", "inline"],
        ["validate", "--quick"],
        ["validate", "--workers", "process"],
        ["serve"],
        ["serve", "--smoke"],
        ["submit", "table3", "--tenant", "a"],
        # Campaign runs are deterministic, so they are no longer retried.
        *(
            ["campaign", "run", "smoke", f"--{name}", "1"]
            for name in ("retries", "backoff")
        ),
    ],
    ids=" ".join,
)
def test_removed_options_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err


def test_campaign_run_rejects_a_name_beside_experiments(capsys, tmp_path):
    """An ad-hoc ``--experiments`` list and a named campaign are two
    different campaigns: refuse the pair instead of dropping the name."""
    argv = ["campaign", "run", "table6", "--experiments", "fig1"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'table6'" in err and "--experiments" in err
    assert not any(tmp_path.iterdir())


def test_campaign_run_removed_option_after_experiments_is_rejected(capsys, tmp_path):
    argv = ["campaign", "run", "--experiments", "fig1", "--backoff", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--backoff" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_synth_scatter_prints_comparison(capsys):
    assert main([
        "synth", "scatter", "--ranks", "4", "--iterations", "3",
        "--imbalance", "2.0",
    ]) == 0
    out = capsys.readouterr().out
    assert "imbalance" in out
    assert "cfs" in out and "adaptive" in out


def test_synth_scatter_json(capsys):
    import json

    assert main([
        "synth", "scatter", "--ranks", "4", "--iterations", "3",
        "--schedulers", "cfs", "--json",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "cfs" in data


def test_synth_convergence_prints_metrics(capsys):
    assert main([
        "synth", "convergence", "--ranks", "4", "--iterations", "8",
        "--revert-at", "6",
    ]) == 0
    out = capsys.readouterr().out
    assert "epochs" in out
    assert "uniform" in out and "adaptive" in out


@pytest.mark.parametrize("eps", ["-1", "nan"])
def test_synth_convergence_rejects_a_bad_eps(capsys, eps):
    assert main([
        "synth", "convergence", "--ranks", "4", "--iterations", "4",
        "--eps", eps,
    ]) == 2
    captured = capsys.readouterr()
    assert f"eps must be non-negative, got {float(eps)}" in captured.err


def test_export_rejects_fewer_than_one_iteration(capsys, tmp_path):
    out = tmp_path / "art"
    assert main([
        "export", "metbench", "cfs", "--iterations", "0", "--out", str(out),
    ]) == 2
    captured = capsys.readouterr()
    assert "need at least one iteration, got 0" in captured.err
    assert not out.exists()


def test_synth_sweep_prints_cells(capsys):
    assert main([
        "synth", "sweep", "--imbalances", "1.0,2.0", "--ranks", "4",
        "--iterations", "2", "--schedulers", "cfs",
    ]) == 0
    out = capsys.readouterr().out
    assert "I=1" in out and "I=2" in out and "N=4" in out


@pytest.mark.parametrize(
    "grid", [["--ranks", "0"], ["--imbalances", "0.5"]], ids=" ".join
)
def test_synth_sweep_rejects_a_grid_with_no_feasible_cell(capsys, grid):
    assert main(["synth", "sweep", *grid]) == 2
    captured = capsys.readouterr()
    assert "no feasible cell" in captured.err
    assert captured.out == ""


def test_synth_rejects_infeasible_imbalance(capsys):
    assert main([
        "synth", "scatter", "--ranks", "4", "--imbalance", "9.0",
    ]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_validate_pool_flag(capsys):
    assert main([
        "validate", "--fuzz", "1", "--dt", "5e-5", "--pool", "synth",
    ]) == 0
    out = capsys.readouterr().out
    assert "pool=synth" in out


@pytest.mark.parametrize("count", ["0", "-2"])
def test_validate_rejects_fewer_than_one_scenario(capsys, count):
    assert main(["validate", "--fuzz", count]) == 2
    captured = capsys.readouterr()
    assert f"need at least one scenario, got {count}" in captured.err
    assert captured.out == ""
