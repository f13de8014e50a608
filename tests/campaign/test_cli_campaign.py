"""CLI: ``campaign run|status|report`` and ``run --param/--seed``."""

import json

import pytest

from repro.cli import main


def test_campaign_run_status_report_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "camp"
    argv = [
        "campaign", "run",
        "--experiments", "fig1,table1",
        "--jobs", "2",
        "--out", str(out_dir),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2/2 OK" in out
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "runs.jsonl").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["totals"]["ok"] == 2

    # warm re-run: 100% cache-hit ratio
    assert main(argv) == 0
    assert "cache-hit ratio 100%" in capsys.readouterr().out

    assert main(["campaign", "status", str(out_dir)]) == 0
    status = capsys.readouterr().out
    assert "2/2 OK" in status and "hit" in status

    assert main(["campaign", "report", str(out_dir)]) == 0
    assert "campaign:" in capsys.readouterr().out


def test_campaign_smoke_builtin(tmp_path, capsys):
    assert (
        main(["campaign", "run", "smoke", "--jobs", "2", "--out", str(tmp_path / "s")])
        == 0
    )
    assert "2/2 OK" in capsys.readouterr().out


def test_campaign_unknown_builtin(tmp_path, capsys):
    assert main(["campaign", "run", "bogus", "--out", str(tmp_path / "x")]) == 2
    assert "unknown campaign" in capsys.readouterr().err


def test_campaign_failed_run_sets_exit_code(tmp_path, capsys):
    assert (
        main(
            [
                "campaign", "run",
                "--experiments", "not-an-experiment",
                "--out", str(tmp_path / "f"),
                "--retries", "0",
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "FAILED" in out and "0/1 OK" in out


def test_campaign_status_missing_dir(tmp_path, capsys):
    assert main(["campaign", "status", str(tmp_path / "nope")]) == 2
    assert "no campaign found" in capsys.readouterr().err


def test_run_with_param_override(capsys):
    assert main(["run", "fig2", "--param", "iterations=2"]) == 0
    out = capsys.readouterr().out
    assert "spans" in out


def test_run_param_and_iterations_share_code_path(capsys):
    # --iterations is folded into the same kwargs as --param
    assert main(["run", "fig2", "--iterations", "2"]) == 0
    assert "spans" in capsys.readouterr().out


def test_run_seed_ignored_note_for_non_seeded_runner(capsys):
    # run_table3 takes no seed and no **kwargs: the CLI notes the drop
    assert main(["run", "table3", "--seed", "5", "--param", "iterations=2"]) == 0
    captured = capsys.readouterr()
    assert "does not accept 'seed'" in captured.err


def test_run_bad_param_syntax():
    import pytest

    with pytest.raises(SystemExit):
        main(["run", "fig2", "--param", "oops"])


_BAD_SETTINGS = [
    ("--jobs", "0", "jobs must be at least 1, got 0"),
    ("--retries", "-1", "retries must be non-negative, got -1"),
    ("--verify", "-1", "verify must be non-negative, got -1"),
    ("--backoff", "-1", "backoff must be non-negative, got -1.0"),
    ("--backoff", "nan", "backoff must be non-negative, got nan"),
    ("--timeout", "0", "timeout must be positive, got 0.0"),
    ("--timeout", "-1", "timeout must be positive, got -1.0"),
    ("--timeout", "nan", "timeout must be positive, got nan"),
]


@pytest.mark.parametrize(
    "flag, value, message",
    _BAD_SETTINGS,
    ids=[f"{flag} {value}" for flag, value, _ in _BAD_SETTINGS],
)
def test_campaign_run_rejects_bad_executor_settings(
    tmp_path, capsys, flag, value, message
):
    """Out-of-range settings exit 2 before any run starts, instead of
    being clamped or silently read as "off"."""
    argv = [
        "campaign", "run", "--experiments", "fig1",
        "--out", str(tmp_path / "c"), flag, value,
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "OK" not in captured.out
