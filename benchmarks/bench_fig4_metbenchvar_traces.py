"""Figure 4: MetBenchVar traces — behaviour reversal and recovery.

Checks the paper's visual story: (a) baseline alternates which pair
waits; (b) static is balanced in periods 1/3 but *reversed* in period
2 (P2/P4 wait heavily there); (c,d) the dynamic heuristics re-balance
within a couple of iterations after each swap.
"""

from repro.experiments.figures import figure4
from repro.trace.records import State


def test_fig4_metbenchvar_traces():
    out = figure4(iterations=45, k=15)
    for sched, entry in out.items():
        print(f"\n== Fig 4 {sched} (exec {entry['exec_time']:.2f}s) ==")
        print(entry["gantt"])

    def wait_density(gantt, row, lo, hi):
        for line in gantt.splitlines():
            if line.startswith(row):
                body = line.split(None, 1)[1] if " " in line else line[len(row):]
                body = line[3:]  # fixed label width is small; slice row
                seg = body[int(lo * len(body)): int(hi * len(body))]
                return seg.count(".") / max(1, len(seg))
        raise AssertionError(row)

    static = out["static"]["gantt"]
    # static, period 2 (middle third): the boosted pair (P2) now has the
    # small load *and* the high priority -> it waits conspicuously
    assert wait_density(static, "P2", 0.38, 0.62) > 0.2
    # static, period 1: balanced, nobody waits much
    assert wait_density(static, "P2", 0.05, 0.30) < 0.1

    uniform = out["uniform"]["gantt"]
    # dynamic: waiting confined to short adaptation windows
    assert wait_density(uniform, "P1", 0.0, 1.0) < 0.15
    assert wait_density(uniform, "P2", 0.0, 1.0) < 0.15

    # the dynamic run finished faster than the static one
    assert out["uniform"]["exec_time"] < out["static"]["exec_time"]
