"""Figure 6: SIESTA traces — very short phases, heavy messaging.

The visual claim: the trace barely changes between the standard and the
HPCSched runs (the imbalance is intrinsic and unfixable by priorities);
only the execution time shrinks.
"""

from repro.experiments.figures import figure6


def _density(gantt: str, row_prefix: str, glyph: str) -> float:
    for line in gantt.splitlines():
        if line.startswith(row_prefix):
            body = line[3:]
            return body.count(glyph) / max(1, len(body.rstrip()))
    raise AssertionError(row_prefix)


def test_fig6_siesta_traces():
    out = figure6(scf_steps=4)
    for sched, entry in out.items():
        print(f"\n== Fig 6 {sched} (exec {entry['exec_time']:.2f}s) ==")
        print(entry["gantt"])

    for sched in ("uniform", "adaptive"):
        # the utilization picture is unchanged within a few points
        for row in ("P1", "P2", "P3", "P4"):
            assert abs(
                _density(out[sched]["gantt"], row, "#")
                - _density(out["cfs"]["gantt"], row, "#")
            ) < 0.10, (sched, row)
        # but the run is faster
        assert out[sched]["exec_time"] < out["cfs"]["exec_time"]
