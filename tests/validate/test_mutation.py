"""Mutation tests: injected engine bugs must be caught and minimized.

The differential harness exists to catch defects in the fluid-rate
engine's banked-progress arithmetic.  These tests *inject* such defects
through the ``mutate_task`` hook (overriding ``Task.bank_progress`` on
every task of the fluid run) and assert that the harness (a) flags a
divergence and (b) shrinks it to a small actionable repro.
"""

import pytest

from repro.kernel.task import Task
from repro.validate.differential import run_differential, shrink
from repro.validate.fuzz import generate_scenario
from repro.validate.scenario import ComputeOp, Scenario, TaskSpec


def bank_mutation(corrupt):
    """A ``mutate_task`` hook: every rebank runs the real banking, then
    ``corrupt(task, before, done)`` falsifies its result.  ``Task`` is
    slotted, so the override lives on a slot-less subclass that each
    task is switched to through ``__class__``."""

    class Mutant(Task):
        __slots__ = ()

        def bank_progress(self, now):
            before = self.phase_remaining
            Task.bank_progress(self, now)
            corrupt(self, before, before - self.phase_remaining)

    def mutate(task):
        task.__class__ = Mutant

    return mutate


def losing_bank_bug(fraction):
    """A banking defect: on every rebank, ``fraction`` of the work that
    was just credited is credited *again* (the task appears to have done
    more work than it did — completions land early)."""

    def corrupt(task, before, done):
        task.phase_remaining = max(0.0, task.phase_remaining - fraction * done)

    return bank_mutation(corrupt)


def forgetting_bank_bug(fraction):
    """The converse defect: ``fraction`` of the banked progress is lost
    on every rebank — completions land late."""

    def corrupt(task, before, done):
        task.phase_remaining = min(before, task.phase_remaining + fraction * done)

    return bank_mutation(corrupt)


#: A scenario of two SMT siblings whose staggered completions force a
#: rebank: when B finishes, A's rate changes and its accrued progress
#: must be banked — the exact code path the mutations corrupt.
SIBLINGS = Scenario(
    tasks=(
        TaskSpec("A", 0, (ComputeOp(0.02),), "mixed", 3),
        TaskSpec("B", 1, (ComputeOp(0.008),), "mixed", 6),
    ),
    label="siblings",
)


def test_unmutated_siblings_agree():
    assert run_differential(SIBLINGS).ok


@pytest.mark.parametrize(
    "bug", [forgetting_bank_bug(0.3), losing_bank_bug(0.3)],
    ids=["forgets-progress", "double-credits-progress"],
)
def test_banking_bug_caught_on_sibling_scenario(bug):
    res = run_differential(SIBLINGS, mutate_task=bug)
    assert not res.ok
    assert res.divergence.task == "A"  # B runs to completion unperturbed


def test_banking_bug_caught_and_minimized_from_fuzz():
    """Acceptance: a fuzzed scenario catches the injected banking bug
    and the shrinker reduces it to a minimal divergent repro."""
    bug = forgetting_bank_bug(0.3)
    scenario = generate_scenario(0, 1)
    res = run_differential(scenario, mutate_task=bug)
    assert not res.ok

    minimized = shrink(scenario, mutate_task=bug)
    assert not minimized.ok
    assert minimized.divergence is not None
    # The repro is genuinely minimal: a rebank needs two sibling tasks,
    # each needs at least one op to have an event to diverge on.
    assert len(minimized.scenario.tasks) == 2
    assert minimized.scenario.total_ops() <= 4
    # Shrinking never loses the divergence location's meaning:
    text = minimized.divergence.describe()
    assert "first divergent event" in text


def test_shrink_returns_input_when_not_divergent():
    res = shrink(SIBLINGS)
    assert res.ok


def test_subtle_banking_bug_still_caught():
    """Even a 5%-of-banked-work defect must be visible to the harness
    on at least one fuzzed scenario (tight tolerance + refinement)."""
    bug = forgetting_bank_bug(0.05)
    caught = [
        i
        for i in range(20)
        if not run_differential(
            generate_scenario(0, i), mutate_task=bug
        ).ok
    ]
    assert caught, "a 5% banking defect escaped 20 fuzzed scenarios"
