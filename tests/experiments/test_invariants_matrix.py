"""Cross-cutting invariants over the whole (workload x scheduler)
matrix: every experiment run leaves the kernel consistent, accounts its
time, and its measurements are internally coherent."""

import pytest

from repro.experiments.common import run_experiment
from repro.validate.invariants import consistency_check
from repro.workloads.amr import AMRDrift
from repro.workloads.btmz import BTMZ
from repro.workloads.metbench import MetBench
from repro.workloads.metbenchvar import MetBenchVar
from repro.workloads.siesta import Siesta

CASES = [
    ("metbench", lambda: MetBench(iterations=4)),
    ("metbenchvar", lambda: MetBenchVar(iterations=4, k=2)),
    ("btmz", lambda: BTMZ(iterations=8)),
    ("siesta", lambda: Siesta(scf_steps=2, subiters=60)),
    ("amr", lambda: AMRDrift(iterations=8)),
]
SCHEDULERS = ["cfs", "uniform", "adaptive", "hybrid"]


@pytest.mark.parametrize("wl_name,factory", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_run_invariants(wl_name, factory, scheduler):
    res = run_experiment(factory(), scheduler, keep_trace=True)
    kernel = res.kernel

    # 1. kernel state consistent at the end
    assert consistency_check(kernel) == []

    # 2. every measured task's state intervals tile its lifetime
    for name, tr in res.tasks.items():
        assert tr.running > 0, name
        assert 0.0 <= tr.pct_comp <= 100.0
        assert tr.running + tr.ready + tr.waiting <= res.exec_time * 1.001

    # 3. occupancy never exceeds machine capacity
    total_cpu = sum(t.sum_exec_runtime for t in kernel.tasks.values())
    assert total_cpu <= res.exec_time * kernel.machine.n_cpus * 1.001

    # 4. hardware priorities within the HPCSched window (dynamic runs)
    if scheduler != "cfs":
        lo = kernel.tunables.min_prio
        hi = kernel.tunables.max_prio
        for hist in res.priority_history.values():
            for _, prio in hist:
                assert lo <= prio <= hi

    # 5. exec time is positive and finite
    assert 0.0 < res.exec_time < 1e6
