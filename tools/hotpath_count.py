#!/usr/bin/env python
"""Deterministic hot-path cost: Python calls and opcodes per delivered event.

Wall times are noisy on shared hosts; these counts are not.  A
``sys.settrace`` hook counts every Python call and opcode, keyed by
``repro`` subpackage (``other`` outside ``repro``, e.g. ``enum``), for
``siesta`` (the Table VI trio at ``scf_steps=1`` with OS noise, unkept)
and ``cluster`` (``repro cluster --nodes 64 --iterations 10``).

    PYTHONPATH=src python tools/hotpath_count.py [siesta|cluster ...]

Only the public API is used: point ``PYTHONPATH`` at any checkout.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path


def siesta() -> None:
    from repro.experiments.siesta import run_one

    for sched in ("cfs", "uniform", "adaptive"):
        run_one(sched, scf_steps=1, noise=True, keep_trace=False)


def cluster() -> None:
    from repro.cluster.experiment import ladder_loads, run_cluster

    for strategy in ("block", "gang"):
        run_cluster(strategy, loads=ladder_loads(256), iterations=10, n_nodes=64)


SCENARIOS = {"siesta": siesta, "cluster": cluster}


def count(scenario) -> tuple:
    """Run ``scenario`` traced; returns (calls, opcodes, events)."""
    import repro
    from repro.simcore.engine import Simulator

    root = str(Path(repro.__file__).parent) + "/"
    run_code = Simulator.run.__code__
    calls, opcodes, layer_of, sims = Counter(), Counter(), {}, {}

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[layer_of[frame.f_code]] += 1
        return local

    def global_(frame, event, arg):
        code = frame.f_code
        layer = layer_of.get(code)
        if layer is None:
            name = code.co_filename
            sub = name[len(root):].split("/")[0] if name.startswith(root) else ""
            layer = layer_of[code] = sub.removesuffix(".py") or "other"
        if code is run_code:
            sims[id(frame.f_locals["self"])] = frame.f_locals["self"]
        calls[layer] += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(global_)
    try:
        scenario()
    finally:
        sys.settrace(None)
    return calls, opcodes, sum(s.events_processed for s in sims.values())


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(SCENARIOS)
    for name in names:
        calls, opcodes, events = count(SCENARIOS[name])
        calls["total"], opcodes["total"] = sum(calls.values()), sum(opcodes.values())
        print(f"{name}: {events:,} delivered events, "
              f"{calls['total']:,} calls, {opcodes['total']:,} opcodes")
        print(f"  {'layer':<12}{'calls/event':>12}{'opcodes/event':>15}")
        for layer, ops in opcodes.most_common():
            print(f"  {layer:<12}{calls[layer] / events:12.2f}{ops / events:15.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
