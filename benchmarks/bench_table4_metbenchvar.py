"""Table IV: MetBenchVar, full size (k=15, 3 periods, ~368 simulated s).

Shape assertions: baseline ~368 s with the 50/75 mixed utilizations;
static recovers only part of the gain (reversed in period 2); the
dynamic heuristics beat static and re-balance after each reversal.
"""

import pytest

from repro.analysis.tables import format_characterization_table, format_comparison
from repro.experiments.metbenchvar import PAPER_COMP, PAPER_EXEC, run_table4


def _run():
    return run_table4(keep_trace=False)


def test_table4_metbenchvar():
    results = _run()
    print()
    print(
        format_characterization_table(
            list(results.values()), "Table IV (MetBenchVar, k=15)"
        )
    )
    print()
    print(format_comparison(results, PAPER_EXEC, PAPER_COMP, "vs. paper:"))

    base = results["cfs"]
    assert base.exec_time == pytest.approx(PAPER_EXEC["cfs"], rel=0.02)
    assert base.tasks["P1"].pct_comp == pytest.approx(50.2, abs=3.0)
    assert base.tasks["P2"].pct_comp == pytest.approx(75.1, abs=3.0)

    static = results["static"]
    uniform = results["uniform"]
    adaptive = results["adaptive"]
    assert static.improvement_over(base) > 5.0
    # the dynamic schedulers must beat the statically-reversed period 2
    assert uniform.exec_time < static.exec_time
    assert adaptive.exec_time < static.exec_time
    for sched, res in (("uniform", uniform), ("adaptive", adaptive)):
        gain = res.improvement_over(base)
        assert 8.0 < gain < 14.0, f"{sched} gain {gain:.1f}%"
        assert res.exec_time == pytest.approx(PAPER_EXEC[sched], rel=0.05)
        # re-balancing happened after each of the two reversals
        assert res.priority_changes >= 6
