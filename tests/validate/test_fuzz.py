"""The scenario fuzzer: determinism, domain validity, campaign plumbing."""

import pytest

from repro.validate.fuzz import FuzzReport, generate_scenario, run_fuzz
from repro.validate.scenario import BarrierOp


def test_generation_is_deterministic():
    for i in range(5):
        assert generate_scenario(3, i) == generate_scenario(3, i)


def test_generation_varies_across_indices_and_seeds():
    base = generate_scenario(0, 0)
    assert any(generate_scenario(0, i) != base for i in range(1, 6))
    assert generate_scenario(1, 0) != base


def test_generated_scenarios_stay_inside_the_domain():
    for i in range(30):
        s = generate_scenario(11, i)
        s.validate()  # raises on any domain violation
        assert 1 <= len(s.tasks) <= s.n_cpus
        assert all(len(t.ops) >= 1 for t in s.tasks)


def test_generated_barriers_are_never_lonely():
    """A generated barrier group always has >= 2 members (a 1-member
    barrier would make the scenario trivially sequential)."""
    for i in range(30):
        s = generate_scenario(2, i)
        members = sum(
            1
            for t in s.tasks
            if any(isinstance(op, BarrierOp) for op in t.ops)
        )
        assert members == 0 or members >= 2


def test_small_campaign_is_clean_and_reports():
    seen = []
    report = run_fuzz(count=5, seed=0, on_case=seen.append)
    assert isinstance(report, FuzzReport)
    assert report.ok
    assert report.divergences == 0
    assert len(report.cases) == 5
    assert [c.index for c in seen] == [0, 1, 2, 3, 4]
    text = report.summary()
    assert "seed=0" in text and "divergences: 0" in text


def test_campaign_stops_and_minimizes_on_divergence(monkeypatch):
    """A campaign that hits a divergence shrinks it into ``failure`` and
    (by default) stops fuzzing."""
    import repro.validate.fuzz as fuzz
    from repro.kernel.task import Task

    # Task is slotted: the buggy banking is a slot-less subclass the
    # hook switches each task to.
    class Buggy(Task):
        __slots__ = ()

        def bank_progress(self, now):
            before = self.phase_remaining
            Task.bank_progress(self, now)
            done = before - self.phase_remaining
            self.phase_remaining = min(before, self.phase_remaining + 0.3 * done)

    def bug(task):
        task.__class__ = Buggy

    real_run = fuzz.run_differential
    real_shrink = fuzz.shrink
    monkeypatch.setattr(
        fuzz, "run_differential",
        lambda s, dt=2e-5: real_run(s, dt=dt, mutate_task=bug),
    )
    monkeypatch.setattr(
        fuzz, "shrink",
        lambda s, dt=2e-5: real_shrink(s, dt=dt, mutate_task=bug),
    )
    report = fuzz.run_fuzz(count=20, seed=0)
    assert not report.ok
    assert report.failure is not None and not report.failure.ok
    assert len(report.cases) < 20  # stopped at the first divergence
    assert "MINIMIZED REPRO" in report.summary()


def test_cli_validate_subcommand_passes(capsys):
    from repro.cli import main

    assert main(["validate", "--fuzz", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "divergences: 0" in out
    assert "[  3/3]" in out
