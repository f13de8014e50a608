"""Bench harness: suite execution, report I/O, regression comparison,
and the ``repro bench`` CLI path."""

import json

import pytest

from repro.bench import harness
from repro.bench.scenarios import (
    cluster_metbench,
    cluster_metbench_sharded,
    event_storm_chain,
    event_storm_deep,
    event_storm_wide,
    event_storm_wide_sharded,
    synth_convergence,
    synth_scatter,
)
from repro.cli import main
from tests.conftest import use_stock_kernels


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def test_storm_chain_deterministic_event_count():
    assert event_storm_chain(500) == 500
    assert event_storm_chain(500) == 500


def test_storm_deep_deterministic_event_count():
    # chains * (n // chains) events, independent of scheduling noise
    assert event_storm_deep(1000, chains=16) == 16 * (1000 // 16)


def test_storm_wide_deterministic_event_count():
    # The wide storm spans a real cluster; same inputs must replay the
    # exact same event stream (the count includes MPI + kernel events).
    first = event_storm_wide(chains=8, n_nodes=2)
    assert first > 0
    assert event_storm_wide(chains=8, n_nodes=2) == first


def test_cluster_metbench_runs_both_placements():
    assert cluster_metbench(n_nodes=2, iterations=1) > 0


def test_cluster_metbench_elides_events(monkeypatch):
    # The kernel-level fast-forward engine parks inert balance timers
    # in the serial cluster too, so serial and sharded elide
    # identically; the stock (fastforward=False) run pays for every fire.
    serial = cluster_metbench(n_nodes=4, iterations=1)
    sharded = cluster_metbench_sharded(n_nodes=4, iterations=1, shards=2)
    use_stock_kernels(monkeypatch)
    stock = cluster_metbench(n_nodes=4, iterations=1)
    assert 0 < serial < stock
    assert 0 < sharded <= stock


def test_event_storm_wide_sharded_deterministic():
    first = event_storm_wide_sharded(chains=16, n_nodes=2, shards=2)
    assert first > 0
    assert event_storm_wide_sharded(chains=16, n_nodes=2, shards=2) == first


def test_synth_scatter_deterministic_event_count():
    first = synth_scatter(ranks=8, imbalance=2.0, iterations=2)
    assert first > 0
    assert synth_scatter(ranks=8, imbalance=2.0, iterations=2) == first


def test_synth_convergence_deterministic_event_count():
    first = synth_convergence(ranks=8, iterations=8)
    assert first > 0
    assert synth_convergence(ranks=8, iterations=8) == first


def test_synth_scenarios_have_harness_entries():
    for name in ("synth_scatter_64", "synth_convergence_64"):
        assert name in harness.SCENARIO_NAMES
        fn, params = harness._entry_spec(name, quick=True, storm_events=0)
        assert callable(fn)
        assert params["ranks"] == 64
        assert params["scheduler"] == "adaptive"


# ----------------------------------------------------------------------
# Suite + report structure
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_report():
    lines = []
    report = harness.run_suite(
        quick=True,
        label="test",
        rounds=1,
        storm_events=2_000,
        progress=lines.append,
    )
    return report, lines


def test_run_suite_covers_storms_and_experiment(tiny_report):
    report, lines = tiny_report
    names = set(report.records)
    assert {"event_storm_chain", "event_storm_deep", "metbench_uniform"} <= names
    assert len(lines) == len(report.records)
    for rec in report.records.values():
        assert rec.wall_s > 0
        assert rec.events > 0
        assert rec.events_per_sec > 0


def test_run_suite_scenario_filter_selects_only_named():
    report = harness.run_suite(
        quick=True,
        label="filtered",
        rounds=1,
        storm_events=2_000,
        scenarios=["event_storm_chain"],
    )
    assert set(report.records) == {"event_storm_chain"}


def test_run_suite_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="event_storm_chain"):
        harness.run_suite(quick=True, rounds=1, scenarios=["bogus"])


def test_report_dict_is_schema_versioned(tiny_report):
    report, _ = tiny_report
    data = report.to_dict()
    assert data["schema"] == harness.SCHEMA_VERSION
    assert data["label"] == "test"
    assert data["quick"] is True
    assert data["benchmarks"]["event_storm_chain"]["params"] == {"events": 2_000}
    # peak RSS is recorded on POSIX platforms
    assert data["peak_rss_kb"] is None or data["peak_rss_kb"] > 0
    # measurement-context metadata (jobs/CPU count) is always recorded
    assert data["jobs"] == 1
    assert data["host_cpus"] >= 1


def test_sharded_scenarios_carry_worker_params():
    report = harness.run_suite(
        quick=True,
        rounds=1,
        storm_events=2_000,
        scenarios=["event_storm_wide_sharded", "cluster_metbench_64_sharded"],
    )
    for rec in report.records.values():
        assert rec.params["shards"] == harness.DEFAULT_SHARDS
        assert rec.params["workers"] == harness.DEFAULT_SHARD_WORKERS


def test_sharded_records_attach_sync_meta():
    """Sharded scenario records carry the sync_rounds/wire_bytes
    attribution in ``meta`` — outside params, so baseline comparability
    is untouched — and the meta survives the JSON round trip."""
    report = harness.run_suite(
        quick=True,
        rounds=1,
        storm_events=2_000,
        scenarios=["event_storm_wide_sharded"],
    )
    rec = report.records["event_storm_wide_sharded"]
    assert rec.meta is not None
    assert rec.meta["sync_rounds"] > 0
    assert rec.meta["workers"] == harness.DEFAULT_SHARD_WORKERS
    assert rec.to_dict()["meta"] == rec.meta
    # Non-sharded records carry no meta at all.
    plain = harness.run_suite(
        quick=True, rounds=1, storm_events=2_000,
        scenarios=["event_storm_chain"],
    )
    assert plain.records["event_storm_chain"].meta is None
    assert "meta" not in plain.records["event_storm_chain"].to_dict()


def test_proc_scenarios_force_process_transport():
    """The ``*_proc`` twins pin ``workers="process"`` in params and
    record nonzero wire_bytes — the wire protocol actually ran."""
    report = harness.run_suite(
        quick=True,
        rounds=1,
        storm_events=2_000,
        scenarios=["event_storm_wide_sharded_proc"],
    )
    rec = report.records["event_storm_wide_sharded_proc"]
    assert rec.params["workers"] == "process"
    assert rec.meta["workers"] == "process"
    assert rec.meta["wire_bytes"] > 0
    assert rec.events > 0


def test_shards_sweep_emits_scaling_table():
    report = harness.run_shards_sweep(
        [1, 2], scenarios=["event_storm_wide_sharded"], quick=True, rounds=1
    )
    names = list(report.records)
    assert names == [
        "event_storm_wide_sharded@s1",
        "event_storm_wide_sharded@s2",
    ]
    assert report.records[names[0]].params["shards"] == 1
    assert report.records[names[1]].params["shards"] == 2
    rows = report.scaling["event_storm_wide_sharded"]
    assert [row["shards"] for row in rows] == [1, 2]
    for row in rows:
        assert row["wall_s"] > 0
        assert row["events_per_sec"] > 0
        assert "sync_rounds" in row and "wire_bytes" in row
    # 1 shard short-circuits the window machinery entirely.
    assert rows[0]["sync_rounds"] == 0
    assert rows[1]["sync_rounds"] > 0
    assert report.to_dict()["scaling"] == report.scaling


def test_shards_sweep_rejects_bad_inputs():
    with pytest.raises(ValueError):
        harness.run_shards_sweep([], scenarios=["event_storm_wide_sharded"])
    with pytest.raises(ValueError):
        harness.run_shards_sweep([0, 2], scenarios=["event_storm_wide_sharded"])
    with pytest.raises(ValueError):
        harness.run_shards_sweep([1], scenarios=["event_storm_chain"])


def test_run_suite_parallel_jobs_matches_serial_structure():
    scenarios = ["event_storm_chain", "event_storm_deep"]
    serial = harness.run_suite(
        quick=True, rounds=1, storm_events=2_000, scenarios=scenarios
    )
    parallel = harness.run_suite(
        quick=True, rounds=1, storm_events=2_000, scenarios=scenarios, jobs=2
    )
    assert list(parallel.records) == list(serial.records)  # plan order kept
    assert parallel.jobs == 2
    for name in scenarios:
        assert parallel.records[name].events == serial.records[name].events
        assert parallel.records[name].params == serial.records[name].params


def test_context_warnings_flag_jobs_and_cpu_mismatch():
    cur = {"jobs": 2, "host_cpus": 4, "benchmarks": {}}
    base = {"jobs": 1, "host_cpus": 8, "benchmarks": {}}
    warnings = harness.context_warnings(cur, base)
    assert len(warnings) == 3
    assert any("jobs" in w for w in warnings)
    assert any("CPU count" in w for w in warnings)
    # a cpu-count difference is also a fingerprint difference
    assert any("fingerprint mismatch" in w for w in warnings)
    # pre-metadata reports (no fields) never warn against each other
    assert harness.context_warnings({"benchmarks": {}}, {"benchmarks": {}}) == []


def test_write_and_load_roundtrip(tiny_report, tmp_path):
    report, _ = tiny_report
    path = tmp_path / "BENCH_test.json"
    harness.write_report(report, path)
    data = harness.load_report(path)
    assert data["benchmarks"].keys() == report.records.keys()


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text(json.dumps({"schema": 999, "benchmarks": {}}))
    with pytest.raises(harness.BenchFormatError):
        harness.load_report(path)
    path.write_text(json.dumps({"nope": 1}))
    with pytest.raises(harness.BenchFormatError):
        harness.load_report(path)
    path.write_text(json.dumps({"schema": harness.SCHEMA_VERSION}))
    with pytest.raises(harness.BenchFormatError):
        harness.load_report(path)


# ----------------------------------------------------------------------
# Baseline discovery + comparison
# ----------------------------------------------------------------------
def _report_dict(eps, params=None):
    return {
        "schema": harness.SCHEMA_VERSION,
        "benchmarks": {
            "event_storm_chain": {
                "events_per_sec": eps,
                "params": params or {"events": 1000},
            }
        },
    }


def test_find_baseline_picks_newest_and_skips_exclude(tmp_path):
    a = tmp_path / "BENCH_a.json"
    b = tmp_path / "BENCH_b.json"
    out = tmp_path / "BENCH_out.json"
    for i, p in enumerate([a, b, out]):
        p.write_text("{}")
        # mtime strictly increasing: a < b < out
        import os

        os.utime(p, (1000 + i, 1000 + i))
    assert harness.find_baseline(tmp_path, exclude=out) == b
    assert harness.find_baseline(tmp_path / "empty", exclude=None) is None


def test_compare_flags_regression_beyond_threshold():
    rows = harness.compare_reports(
        _report_dict(700.0), _report_dict(1000.0), threshold=0.20
    )
    assert len(rows) == 1
    assert rows[0]["regressed"] is True
    assert rows[0]["ratio"] == pytest.approx(0.7)


def test_compare_tolerates_drop_within_threshold_and_gains():
    rows = harness.compare_reports(
        _report_dict(900.0), _report_dict(1000.0), threshold=0.20
    )
    assert rows[0]["regressed"] is False
    rows = harness.compare_reports(
        _report_dict(2000.0), _report_dict(1000.0), threshold=0.20
    )
    assert rows[0]["regressed"] is False
    assert rows[0]["ratio"] == pytest.approx(2.0)


def test_compare_skips_mismatched_params_and_missing_benchmarks():
    cur = _report_dict(500.0, params={"events": 2000})
    base = _report_dict(1000.0, params={"events": 200000})
    assert harness.compare_reports(cur, base) == []
    assert harness.compare_reports(cur, {"schema": 1, "benchmarks": {}}) == []
    # zero-throughput baselines are skipped, not divided by
    assert harness.compare_reports(_report_dict(500.0), _report_dict(0.0)) == []


# ----------------------------------------------------------------------
# Host fingerprint: cross-host downgrade + wall-time basis
# ----------------------------------------------------------------------
def _fp_report(eps, wall=1.0, events=1000, fingerprint=None, **meta):
    rec = {
        "events_per_sec": eps,
        "wall_s": wall,
        "events": events,
        "params": {"events": 1000},
    }
    out = {
        "schema": harness.SCHEMA_VERSION,
        "benchmarks": {"event_storm_chain": rec},
        **meta,
    }
    if fingerprint is not None:
        out["fingerprint"] = fingerprint
    return out


def test_report_records_host_fingerprint(tiny_report):
    report, _ = tiny_report
    data = report.to_dict()
    fp = data["fingerprint"]
    assert set(fp) == {"cpus", "kernel", "python"}
    assert fp["cpus"] == data["host_cpus"]
    assert fp["python"] == data["python"]


def test_fingerprint_derived_from_legacy_metadata():
    # Pre-PR-8 reports carry no explicit fingerprint; the same host must
    # still match one derived from host_cpus/platform/python.
    legacy = {
        "schema": harness.SCHEMA_VERSION,
        "benchmarks": {},
        "host_cpus": 1,
        "platform": "Linux-6.18.5-fc-v20-x86_64-with-glibc2.36",
        "python": "3.11.7",
    }
    modern = dict(
        legacy,
        fingerprint={"cpus": 1, "kernel": "6.18.5-fc-v20", "python": "3.11.7"},
    )
    assert harness.fingerprint_of(legacy) == harness.fingerprint_of(modern)
    assert harness.fingerprints_match(modern, legacy)
    other = dict(
        legacy, platform="Linux-5.10.0-generic-x86_64-with-glibc2.31"
    )
    assert not harness.fingerprints_match(modern, other)


def test_compare_same_fingerprint_still_gates_regressions():
    fp = {"cpus": 1, "kernel": "6.1.0", "python": "3.11.7"}
    rows = harness.compare_reports(
        _fp_report(700.0, fingerprint=fp),
        _fp_report(1000.0, fingerprint=fp),
        threshold=0.20,
    )
    assert rows[0]["regressed"] is True
    assert rows[0]["cross_host"] is False


def test_compare_cross_fingerprint_downgrades_to_warning():
    cur = _fp_report(
        700.0, fingerprint={"cpus": 1, "kernel": "6.1.0", "python": "3.11.7"}
    )
    base = _fp_report(
        1000.0, fingerprint={"cpus": 8, "kernel": "5.10.0", "python": "3.10.2"}
    )
    rows = harness.compare_reports(cur, base, threshold=0.20)
    assert rows[0]["regressed"] is False
    assert rows[0]["cross_host"] is True
    warnings = harness.context_warnings(cur, base)
    assert any("fingerprint mismatch" in w for w in warnings)


def test_compare_uses_wall_basis_when_event_counts_differ():
    # Fast-forward elision legitimately shrinks the event count; the
    # events/sec ratio would then read as a huge regression.  The diff
    # must fall back to wall time (and flag the basis).
    cur = _fp_report(500.0, wall=0.2, events=100)  # 10x fewer events,
    base = _fp_report(5000.0, wall=1.0, events=1000)  # 5x faster wall
    rows = harness.compare_reports(cur, base, threshold=0.20)
    assert rows[0]["basis"] == "wall_s"
    assert rows[0]["ratio"] == pytest.approx(5.0)
    assert rows[0]["regressed"] is False
    # Equal event counts keep the throughput basis.
    rows = harness.compare_reports(
        _fp_report(900.0), _fp_report(1000.0), threshold=0.20
    )
    assert rows[0]["basis"] == "events_per_sec"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _cli_bench(tmp_path, capsys, *extra):
    # Tiny 1-round storms are far too noisy for the default 20%
    # threshold, so the tests pass 0.99: only the fabricated
    # million-fold baseline of the regression test can trip it.
    code = main(
        [
            "bench",
            "--quick",
            "--rounds", "1",
            "--storm-events", "2000",
            "--threshold", "0.99",
            "--out", str(tmp_path),
            *extra,
        ]
    )
    return code, capsys.readouterr()


def test_cli_bench_records_then_diffs(tmp_path, capsys):
    code, captured = _cli_bench(tmp_path, capsys, "--label", "first")
    assert code == 0
    assert "no baseline found" in captured.out
    assert (tmp_path / "BENCH_first.json").exists()

    # Second run auto-discovers the first as its baseline and embeds
    # the comparison in its own report.
    code, captured = _cli_bench(tmp_path, capsys, "--label", "second")
    assert code == 0
    assert "vs " in captured.out and "BENCH_first.json" in captured.out
    data = harness.load_report(tmp_path / "BENCH_second.json")
    assert data["vs_baseline"]["rows"]


def test_cli_bench_fails_on_regression(tmp_path, capsys):
    # A fabricated super-fast baseline forces a >threshold regression.
    fake = {
        "schema": harness.SCHEMA_VERSION,
        "benchmarks": {
            "event_storm_chain": {
                "events_per_sec": 1e12,
                "params": {"events": 2000},
            }
        },
    }
    baseline = tmp_path / "BENCH_fake.json"
    baseline.write_text(json.dumps(fake))
    code, captured = _cli_bench(
        tmp_path, capsys, "--label", "slow", "--baseline", str(baseline)
    )
    assert code == 1
    assert "REGRESSED" in captured.out
    assert "PERFORMANCE REGRESSION" in captured.err


def test_cli_bench_ignores_malformed_baseline(tmp_path, capsys):
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text(json.dumps({"schema": 999, "benchmarks": {}}))
    code, captured = _cli_bench(
        tmp_path, capsys, "--label", "x", "--baseline", str(bad)
    )
    assert code == 0
    assert "baseline ignored" in captured.err


def test_cli_bench_scenario_filter(tmp_path, capsys):
    code, captured = _cli_bench(
        tmp_path, capsys, "--label", "one",
        "--scenario", "event_storm_chain",
    )
    assert code == 0
    data = harness.load_report(tmp_path / "BENCH_one.json")
    assert set(data["benchmarks"]) == {"event_storm_chain"}


def test_cli_bench_jobs_mismatch_warns_against_baseline(tmp_path, capsys):
    code, _ = _cli_bench(
        tmp_path, capsys, "--label", "serial1",
        "--scenario", "event_storm_chain",
    )
    assert code == 0
    code, captured = _cli_bench(
        tmp_path, capsys, "--label", "par",
        "--scenario", "event_storm_chain", "--jobs", "2",
    )
    assert code == 0
    assert "WARNING" in captured.out and "jobs" in captured.out
    data = harness.load_report(tmp_path / "BENCH_par.json")
    assert data["jobs"] == 2
    assert data["vs_baseline"]["warnings"]


def test_cli_bench_unknown_scenario_errors(tmp_path, capsys):
    code, captured = _cli_bench(
        tmp_path, capsys, "--label", "x", "--scenario", "bogus"
    )
    assert code == 2
    assert "bogus" in captured.err


# ----------------------------------------------------------------------
# Schema 2: round statistics, median diff basis
# ----------------------------------------------------------------------
def test_records_carry_round_statistics(tiny_report):
    report, _ = tiny_report
    for rec in report.records.values():
        # best-of-N can never exceed the median of the same rounds.
        assert 0 < rec.wall_s <= rec.wall_median_s
        assert rec.events_per_sec >= rec.events_per_sec_median > 0
        assert rec.wall_cv == 0.0  # single round: no spread
    data = report.to_dict()
    chain = data["benchmarks"]["event_storm_chain"]
    assert "wall_median_s" in chain and "wall_cv" in chain


def test_load_accepts_schema_1_reports(tmp_path):
    path = tmp_path / "BENCH_v1.json"
    path.write_text(json.dumps({"schema": 1, "benchmarks": {}}))
    assert harness.load_report(path)["schema"] == 1


def _rec_v2(eps, eps_median, events=1000):
    return {
        "events": events,
        "events_per_sec": eps,
        "events_per_sec_median": eps_median,
        "params": {"events": 1000},
    }


def test_compare_prefers_median_when_both_reports_have_it():
    cur = {"schema": 2, "benchmarks": {"b": _rec_v2(2000.0, 1000.0)}}
    base = {"schema": 2, "benchmarks": {"b": _rec_v2(1000.0, 1000.0)}}
    rows = harness.compare_reports(cur, base)
    assert rows[0]["basis"] == "events_per_sec_median"
    assert rows[0]["ratio"] == pytest.approx(1.0)  # medians equal


def test_compare_falls_back_to_best_against_v1_baseline():
    cur = {"schema": 2, "benchmarks": {"b": _rec_v2(2000.0, 1800.0)}}
    base = {
        "schema": 1,
        "benchmarks": {
            "b": {
                "events": 1000,
                "events_per_sec": 1000.0,
                "params": {"events": 1000},
            }
        },
    }
    rows = harness.compare_reports(cur, base)
    assert rows[0]["basis"] == "events_per_sec"
    assert rows[0]["ratio"] == pytest.approx(2.0)


def test_compare_wall_basis_uses_median_when_available():
    def wrec(events, wall, wall_median):
        return {
            "events": events,
            "wall_s": wall,
            "wall_median_s": wall_median,
            "events_per_sec": events / wall,
            "events_per_sec_median": events / wall_median,
            "params": {"events": 1000},
        }

    cur = {"schema": 2, "benchmarks": {"b": wrec(500, 1.0, 2.0)}}
    base = {"schema": 2, "benchmarks": {"b": wrec(1000, 1.0, 1.0)}}
    rows = harness.compare_reports(cur, base)  # event counts differ
    assert rows[0]["basis"] == "wall_median_s"
    assert rows[0]["ratio"] == pytest.approx(0.5)
