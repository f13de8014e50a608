#!/usr/bin/env python3
"""Plug a custom balancing heuristic into HPCSched.

The paper's future work asks for "an heuristic capable of performing
well for both constant and dynamic applications".  This example
implements a *proportional* heuristic — instead of the LOW/HIGH band
jump it maps utilization linearly onto the priority window — and races
it against the paper's Uniform heuristic on MetBench.

It demonstrates the extension API: subclass
:class:`repro.hpcsched.heuristics.Heuristic`, implement ``decide`` and
hand the instance to ``attach_hpcsched``.

Usage::

    python examples/custom_heuristic.py
"""

from typing import Optional

from repro import MetBench, UniformHeuristic, attach_hpcsched, build_kernel, launch_workload
from repro.hpcsched.heuristics import Heuristic


class ProportionalHeuristic(Heuristic):
    """Map the recent utilization linearly onto [MIN_PRIO, MAX_PRIO]."""

    name = "proportional"

    def decide(self, detector, task, stats) -> Optional[int]:
        tun = detector.kernel.tunables
        lo = tun.min_prio
        hi = tun.max_prio
        util = stats.last_util if stats.last_util is not None else 0.0
        # full window between the paper's LOW/HIGH anchor points
        low_anchor = tun.low_util / 100.0
        high_anchor = tun.high_util / 100.0
        if util <= low_anchor:
            return lo
        if util >= high_anchor:
            return hi
        frac = (util - low_anchor) / (high_anchor - low_anchor)
        return lo + round(frac * (hi - lo))


def run(heuristic) -> float:
    kernel = build_kernel()
    attach_hpcsched(kernel, heuristic)
    launch_workload(kernel, MetBench(iterations=10), use_hpc=True)
    return kernel.run()


def main() -> None:
    baseline_kernel = build_kernel()
    launch_workload(baseline_kernel, MetBench(iterations=10))
    base = baseline_kernel.run()

    uniform = run(UniformHeuristic())
    proportional = run(ProportionalHeuristic())

    print(f"CFS baseline:            {base:8.2f}s")
    print(f"HPCSched / Uniform:      {uniform:8.2f}s "
          f"({100 * (base - uniform) / base:+.1f}%)")
    print(f"HPCSched / Proportional: {proportional:8.2f}s "
          f"({100 * (base - proportional) / base:+.1f}%)")


if __name__ == "__main__":
    main()
