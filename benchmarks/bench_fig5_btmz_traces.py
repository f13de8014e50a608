"""Figure 5: BT-MZ traces (a representative window of iterations)."""

from repro.experiments.figures import figure5


def _density(gantt: str, row_prefix: str, glyph: str) -> float:
    for line in gantt.splitlines():
        if line.startswith(row_prefix):
            body = line[3:]
            return body.count(glyph) / max(1, len(body.rstrip()))
    raise AssertionError(row_prefix)


def test_fig5_btmz_traces():
    out = figure5(iterations=40)
    for sched, entry in out.items():
        print(f"\n== Fig 5 {sched} (exec {entry['exec_time']:.2f}s) ==")
        print(entry["gantt"])

    # baseline: light ranks mostly wait, P4 never does
    assert _density(out["cfs"]["gantt"], "P1", ".") > 0.5
    assert _density(out["cfs"]["gantt"], "P4", "#") > 0.95
    # balanced runs: everyone's compute density rises, P4 still saturated
    for sched in ("static", "uniform", "adaptive"):
        assert _density(out[sched]["gantt"], "P1", "#") > _density(
            out["cfs"]["gantt"], "P1", "#"
        ), sched
        assert _density(out[sched]["gantt"], "P4", "#") > 0.95, sched
