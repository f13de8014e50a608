"""Figure 3: MetBench traces under the four schedulers.

The paper's PARAVER screenshots become ASCII Gantt charts; the shape
assertions check the visual claims: baseline small-load workers are
mostly waiting (dots), the balanced runs are mostly computing (#).
"""

from repro.experiments.figures import figure3


def _density(gantt: str, row_prefix: str, glyph: str) -> float:
    for line in gantt.splitlines():
        if line.startswith(row_prefix):
            body = line[len(row_prefix):].strip()
            if not body:
                return 0.0
            return body.count(glyph) / len(body)
    raise AssertionError(f"row {row_prefix!r} not found")


def test_fig3_metbench_traces():
    out = figure3(iterations=12)
    for sched, entry in out.items():
        print(f"\n== Fig 3 {sched} (exec {entry['exec_time']:.2f}s) ==")
        print(entry["gantt"])

    # (a) baseline: small-load workers (P1) mostly wait
    assert _density(out["cfs"]["gantt"], "P1", ".") > 0.5
    assert _density(out["cfs"]["gantt"], "P2", "#") > 0.9
    # (b,c,d) balanced: P1 computes nearly all the time
    for sched in ("static", "uniform", "adaptive"):
        assert _density(out[sched]["gantt"], "P1", "#") > 0.85, sched
