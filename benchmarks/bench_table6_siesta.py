"""Table VI: SIESTA (benzene), full size (~81 simulated s, with the OS
noise daemons that make the latency effect visible).

Shape assertions: ~6% execution-time gain for both heuristics while the
per-rank utilizations barely move — the gain is scheduling latency, not
balance (paper §V-D) — and the HPC class collapses wakeup latency.
"""

import pytest

from repro.analysis.tables import format_characterization_table, format_comparison
from repro.experiments.siesta import PAPER_COMP, PAPER_EXEC, run_table6


def _run():
    return run_table6(keep_trace=False)


def test_table6_siesta():
    results = _run()
    print()
    print(format_characterization_table(list(results.values()), "Table VI (SIESTA)"))
    print()
    print(format_comparison(results, PAPER_EXEC, PAPER_COMP, "vs. paper:"))

    base = results["cfs"]
    assert base.exec_time == pytest.approx(PAPER_EXEC["cfs"], rel=0.03)
    assert base.tasks["P1"].pct_comp == pytest.approx(98.9, abs=1.5)
    assert base.tasks["P4"].pct_comp == pytest.approx(20.0, abs=4.0)

    for sched in ("uniform", "adaptive"):
        res = results[sched]
        gain = res.improvement_over(base)
        assert 4.0 < gain < 8.0, f"{sched} gain {gain:.1f}%"
        assert res.exec_time == pytest.approx(PAPER_EXEC[sched], rel=0.05)
        # balance barely moves: every rank within a few points of baseline
        for name, tr in res.tasks.items():
            assert tr.pct_comp == pytest.approx(
                base.tasks[name].pct_comp, abs=4.0
            ), name
        # latency is the mechanism
        assert res.mean_wakeup_latency < base.mean_wakeup_latency
