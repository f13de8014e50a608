"""Extension bench: the Hybrid heuristic (paper §VI future work).

"We would like to find an heuristic capable of performing well (even
if not optimal) for both constant and dynamic applications."  The
Hybrid heuristic (agreement-gated fast path + median damping) is this
repository's answer; this bench races it against Uniform and Adaptive
on all four workloads.
"""

import pytest

from repro.experiments import btmz, metbench, metbenchvar, siesta


def _run_matrix():
    out = {}
    cases = {
        "metbench": (metbench.run_one, {}),
        "metbenchvar": (metbenchvar.run_one, {}),
        "btmz": (btmz.run_one, {"iterations": 60}),
        "siesta": (siesta.run_one, {"scf_steps": 8}),
    }
    for wl, (runner, kwargs) in cases.items():
        base = runner("cfs", keep_trace=False, **kwargs)
        out[wl] = {"cfs": base}
        for sched in ("uniform", "adaptive", "hybrid"):
            out[wl][sched] = runner(sched, keep_trace=False, **kwargs)
    return out


def test_hybrid_across_all_workloads():
    out = _run_matrix()
    print()
    print(f"{'workload':<13}{'uniform':>10}{'adaptive':>10}{'hybrid':>10}")
    for wl, res in out.items():
        base = res["cfs"]
        gains = {
            s: res[s].improvement_over(base)
            for s in ("uniform", "adaptive", "hybrid")
        }
        print(
            f"{wl:<13}{gains['uniform']:>9.1f}%{gains['adaptive']:>9.1f}%"
            f"{gains['hybrid']:>9.1f}%"
        )

    for wl, res in out.items():
        base = res["cfs"]
        hybrid_gain = res["hybrid"].improvement_over(base)
        best_paper = max(
            res["uniform"].improvement_over(base),
            res["adaptive"].improvement_over(base),
        )
        # "well, even if not optimal": within 2.5 points of the best
        # paper heuristic on every workload class
        assert hybrid_gain > best_paper - 2.5, wl
        assert hybrid_gain > 0, wl
