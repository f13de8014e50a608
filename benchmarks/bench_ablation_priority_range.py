"""Ablation: the [MIN_PRIO, MAX_PRIO] window (why the paper caps +-2).

Sweeps the window HPCSched may use on MetBench.  The paper's [4, 6]
wins in both directions:

* the narrower [4, 5] cannot fully balance (+-1 buys too little), and
* wider windows ([3, 6], [2, 6]) actively *hurt*: the heuristic drops
  the light tasks to the bottom, their slowdown explodes (the paper's
  "order of magnitude" asymmetry) and they overshoot into becoming the
  new stragglers — which is exactly why §IV-B limits the range so that
  "the lower priority task's performance does not decrease too much".
"""

from repro.experiments.ablations import ablation_priority_range


def test_ablation_priority_range():
    out = ablation_priority_range(
        ranges=((4, 5), (4, 6), (3, 6), (2, 6)),
        iterations=20,
    )
    base = out["cfs"].exec_time
    print()
    print(f"{'range':<8}{'exec':>9}{'gain':>8}")
    for key, res in out.items():
        if key == "cfs":
            continue
        print(f"{key:<8}{res.exec_time:>8.2f}s{res.improvement_over(out['cfs']):>7.1f}%")
    print(f"cfs     {base:>8.2f}s")

    assert out["[4,6]"].exec_time < base
    # the paper's window beats the narrower one...
    assert out["[4,6]"].exec_time <= out["[4,5]"].exec_time * 1.001
    # ...and the wider ones, where deep de-prioritization backfires
    assert out["[4,6]"].exec_time <= out["[3,6]"].exec_time * 1.001
    assert out["[4,6]"].exec_time <= out["[2,6]"].exec_time * 1.001
