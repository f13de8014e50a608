"""Regression goldens: exact pins against behavioural drift.

The simulation is fully deterministic, so reduced-size experiment
results can be pinned to high precision across the full workload x
scheduler matrix.  A failure here means the *behaviour* of the
scheduler/model changed — which may be intentional (recalibration), in
which case regenerate the stored goldens with::

    pytest tests/test_goldens.py --update-goldens

and review the resulting ``tests/data/goldens.json`` diff together with
the benchmark shape assertions.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import btmz, metbench, metbenchvar, siesta

GOLDENS_PATH = Path(__file__).parent / "data" / "goldens.json"

#: workload -> (runner, reduced-size kwargs).
WORKLOADS = {
    "metbench": (metbench.run_one, {"iterations": 8}),
    "metbenchvar": (metbenchvar.run_one, {"iterations": 9, "k": 3}),
    "btmz": (btmz.run_one, {"iterations": 20}),
    "siesta": (siesta.run_one, {"scf_steps": 3}),
}

#: The paper's four scheduling configurations (§V): vanilla CFS, the
#: static per-rank assignment, uniform HPC priorities, and the adaptive
#: load-imbalance detector.
SCHEDULERS = ("cfs", "static", "uniform", "adaptive")

CASES = {
    f"{workload}_{scheduler}": (runner, scheduler, kwargs)
    for workload, (runner, kwargs) in WORKLOADS.items()
    for scheduler in SCHEDULERS
}


def _load_goldens() -> dict:
    if not GOLDENS_PATH.exists():
        return {}
    return json.loads(GOLDENS_PATH.read_text())


@pytest.mark.parametrize("key", sorted(CASES))
def test_golden(key, request):
    runner, scheduler, kwargs = CASES[key]
    result = runner(scheduler, keep_trace=False, **kwargs)
    if request.config.getoption("--update-goldens"):
        goldens = _load_goldens()
        goldens[key] = result.exec_time
        GOLDENS_PATH.write_text(
            json.dumps(dict(sorted(goldens.items())), indent=2) + "\n"
        )
        pytest.skip(f"golden updated: {key} = {result.exec_time!r}")
    goldens = _load_goldens()
    assert key in goldens, (
        f"no stored golden for {key}; generate it with "
        "pytest tests/test_goldens.py --update-goldens"
    )
    assert result.exec_time == pytest.approx(goldens[key], rel=1e-9), (
        f"{key}: behaviour changed "
        f"({result.exec_time!r} != {goldens[key]!r}); "
        "if intentional, regenerate the goldens (see module docstring)"
    )


def test_goldens_file_matches_the_case_matrix():
    """The stored file tracks the matrices exactly — no stale keys.

    The file is shared with the convergence goldens
    (``tests/test_convergence_goldens.py``), so the expected key set is
    the union of both case matrices.
    """
    from tests.test_convergence_goldens import CONVERGENCE_CASES

    goldens = _load_goldens()
    assert set(goldens) == set(CASES) | set(CONVERGENCE_CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_task_counters_equal_the_kept_timelines(key):
    """The table rows come from each task's own state counters.  On a
    kept run they must equal the trace timeline's sums bit for bit (the
    same deltas added in the same order), and the task's priority
    history must equal the trace's ``hw_priority`` events."""
    from repro.trace.records import State

    runner, scheduler, kwargs = CASES[key]
    result = runner(scheduler, keep_trace=True, **kwargs)
    trace = result.trace
    assert result.tasks
    for name, row in result.tasks.items():
        pid = result.launched.tasks[name].pid
        timeline = trace.timelines[pid]
        assert row.running == timeline.time_in(State.RUNNING), name
        assert row.ready == timeline.time_in(State.READY), name
        assert row.waiting == timeline.time_in(State.WAITING), name
        assert result.priority_history[name] == [
            (ev.time, ev.info["priority"]) for ev in trace.priority_changes(pid)
        ], name
