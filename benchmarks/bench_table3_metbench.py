"""Table III: MetBench, full size (45 iterations, ~82 simulated s).

Prints the paper-layout table plus measured-vs-paper deltas and asserts
the reproduction bands: baseline ~81.8 s with the 25/100 utilization
split; static/Uniform/Adaptive ~11-13% faster with all workers >90%.
"""

import pytest

from repro.analysis.tables import format_characterization_table, format_comparison
from repro.experiments.metbench import PAPER_COMP, PAPER_EXEC, run_table3


def _run():
    return run_table3(keep_trace=False)


def test_table3_metbench():
    results = _run()
    print()
    print(format_characterization_table(list(results.values()), "Table III (MetBench)"))
    print()
    print(format_comparison(results, PAPER_EXEC, PAPER_COMP, "vs. paper:"))

    base = results["cfs"]
    # Baseline matches the paper closely (the model was calibrated here).
    assert base.exec_time == pytest.approx(PAPER_EXEC["cfs"], rel=0.02)
    assert base.tasks["P1"].pct_comp == pytest.approx(25.34, abs=2.0)
    assert base.tasks["P2"].pct_comp > 99.0

    for sched in ("static", "uniform", "adaptive"):
        res = results[sched]
        gain = res.improvement_over(base)
        assert 9.0 < gain < 15.0, f"{sched} gain {gain:.1f}%"
        assert res.exec_time == pytest.approx(PAPER_EXEC[sched], rel=0.05)

    # dynamic balancing lifts every worker's utilization above 90%
    for name, tr in results["uniform"].tasks.items():
        assert tr.pct_comp > 90.0, name
    # and needed exactly one decision per boosted worker
    assert results["uniform"].priority_changes == 2
