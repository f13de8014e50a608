"""Table V: BT-MZ class A, full size (200 iterations, ~95 simulated s).

Shape assertions: the baseline utilization ladder (18/30/66/100), ~16%
gain for static and both heuristics, heuristics converging to the same
stable prioritization as the hand-tuned static one.
"""

import pytest

from repro.analysis.tables import format_characterization_table, format_comparison
from repro.experiments.btmz import PAPER_COMP, PAPER_EXEC, run_table5


def _run():
    return run_table5(keep_trace=False)


def test_table5_btmz():
    results = _run()
    print()
    print(format_characterization_table(list(results.values()), "Table V (BT-MZ)"))
    print()
    print(format_comparison(results, PAPER_EXEC, PAPER_COMP, "vs. paper:"))

    base = results["cfs"]
    assert base.exec_time == pytest.approx(PAPER_EXEC["cfs"], rel=0.02)
    comps = [base.tasks[f"P{i}"].pct_comp for i in range(1, 5)]
    assert comps == sorted(comps)
    assert comps[3] > 99.0
    assert comps[0] < 25.0

    for sched in ("static", "uniform", "adaptive"):
        res = results[sched]
        gain = res.improvement_over(base)
        assert 12.0 < gain < 19.0, f"{sched} gain {gain:.1f}%"
        assert res.exec_time == pytest.approx(PAPER_EXEC[sched], rel=0.05)
        # P4 stays saturated (it paces the whole computation)
        assert res.tasks["P4"].pct_comp > 99.0

    # dynamic ~= static without any programmer effort (paper's headline)
    assert results["uniform"].exec_time == pytest.approx(
        results["static"].exec_time, rel=0.03
    )
