"""Ablation: Adaptive heuristic aggressiveness (G/L sweep).

The paper's §IV-B trade-off: L->1 reacts within an iteration but can
over-react; G->1 degenerates into the Uniform behaviour.  Swept on
MetBenchVar, where responsiveness matters.
"""

from repro.experiments.ablations import ablation_gl


def test_ablation_gl_sweep():
    out = ablation_gl(
        weights=((1.0, 0.0), (0.5, 0.5), (0.1, 0.9)),
        iterations=18,
        k=6,
    )
    base = out["cfs"].exec_time
    print()
    print(f"{'weighting':<16}{'exec':>9}{'gain':>8}{'prio changes':>14}")
    for key, res in out.items():
        if key == "cfs":
            continue
        gain = res.improvement_over(out["cfs"])
        print(f"{key:<16}{res.exec_time:>8.2f}s{gain:>7.1f}%{res.priority_changes:>14}")
    print(f"{'cfs baseline':<16}{base:>8.2f}s")

    for key, res in out.items():
        if key != "cfs":
            assert res.exec_time < base, key
