"""Figure 2: one task's iterative compute/wait structure."""

from repro.experiments.figures import figure2
from repro.trace.records import State


def test_fig2_iteration_trace():
    out = figure2(iterations=4)
    print()
    print(out["gantt"])
    kinds = [k for k, _, _ in out["spans"]]
    # tR/tW alternation: a compute phase between consecutive waits
    assert kinds.count("RUNNING") >= 4
    assert kinds.count("WAITING") >= 4
    for a, b in zip(kinds, kinds[1:]):
        assert a != b, "states must alternate"
