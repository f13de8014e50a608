"""Tests of the benchmark itself, at the tiny workload size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def tiny(workload: str, trace: int, *extra: str) -> dict:
    return result_of(
        bench(
            "--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny", *extra,
        )
    )


def test_spec_matches_the_metrics_run_py_emits():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for metric in SPEC["end_to_end"]:
        assert run.END_TO_END[metric["name"]] == metric["unit"]
    for metric in SPEC["per_layer"]:
        assert run.PER_LAYER[metric["name"]] == metric["unit"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = tiny(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_an_altered_reference_is_a_failed_operation(tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    ops = reference["tiny"]["cluster_256r"]
    ops["gang"] = "0" * len(ops["gang"])
    altered = tmp_path / "reference.json"
    altered.write_text(json.dumps(reference))
    result = tiny("cluster_256r", 0, "--reference", str(altered))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["failed"] < result["attempted"]  # block still matches


def test_host_times_are_scaled_by_each_rounds_speed():
    # The same work in every round; only the host's speed differed.
    rounds = [
        {"setup_s": 1.0, "wall_s": 4.0, "cpu_s": 3.0, "peak_rss_mb": 50.0, "speed": 0.5},
        {"setup_s": 2.0, "wall_s": 8.0, "cpu_s": 6.0, "peak_rss_mb": 52.0, "speed": 0.25},
        {"setup_s": 0.5, "wall_s": 2.5, "cpu_s": 1.5, "peak_rss_mb": 51.0, "speed": 1.0},
    ]
    assert run.end_to_end(rounds) == {
        "setup_s": 0.5, "wall_s": 2.0, "cpu_s": 1.5, "peak_rss_mb": 51.0,
    }


def test_layer_self_times_account_for_the_traced_wall(tmp_path):
    proc = bench(
        "--child", "--workload", "paper_report", "--seed", "0", "--size", "tiny",
        "--trace", "1", "--workdir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = rec["layers"]
    assert set(layers) == {*tracer.LAYERS, tracer.OTHER}
    assert all(value >= 0 for value in layers.values())
    assert sum(layers.values()) == pytest.approx(rec["wall_s"], rel=1e-6)
    # Tracing must leave the simulation untouched.
    reference = json.loads(run.REFERENCE.read_text())["tiny"]["paper_report"]
    assert {name: digest for name, digest, _p in rec["ops"]} == reference


def test_seed_zero_is_what_the_cli_runs(tmp_path):
    from repro.cluster.experiment import ladder_loads, run_cluster
    from repro.experiments.registry import run_by_id

    report = workloads.make("paper_report", 0, "tiny", tmp_path)
    report.setup()
    ops = {op.name: op.digest for op in report.run()}
    for sched, res in run_by_id("table6", scf_steps=1).items():
        assert ops[f"table6/{sched}"] == workloads.digest(workloads._experiment_text(res))

    cluster = workloads.make("cluster_256r", 0, "tiny", tmp_path)
    cluster.setup()
    ops = {op.name: op.digest for op in cluster.run()}
    for strategy in ("block", "gang"):
        res = run_cluster(
            strategy,
            loads=ladder_loads(4 * cluster.nodes),
            iterations=cluster.iterations,
            n_nodes=cluster.nodes,
        )
        text = f"{res.exec_time!r}|" + ";".join(
            f"{rank}={t!r}" for rank, t in sorted(res.rank_exit.items())
        )
        assert ops[strategy] == workloads.digest(text)


def test_other_seeds_change_the_inputs(tmp_path):
    def digests(name, seed):
        wl = workloads.make(name, seed, "tiny", tmp_path)
        wl.setup()
        return {op.name: op.digest for op in wl.run()}

    for name in ("paper_report", "cluster_256r"):
        zero, one = digests(name, 0), digests(name, 1)
        assert zero.keys() == one.keys()
        assert zero != one
        assert digests(name, 1) == one


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(
        "--workload", "cluster_256r", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
