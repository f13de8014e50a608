"""run_experiment plumbing tests."""

import pytest

from repro.experiments.common import SCHEDULERS, build_kernel, run_experiment
from repro.workloads import MetBench
from repro.workloads.noise import NoiseDaemons
from repro.workloads.siesta import Siesta


def test_schedulers_tuple():
    assert SCHEDULERS == ("cfs", "static", "uniform", "adaptive")


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError, match="unknown scheduler"):
        run_experiment(MetBench(iterations=1), "bogus")


def test_build_kernel_is_papers_machine():
    k = build_kernel()
    assert k.machine.n_cpus == 4
    assert k.trace is not None


def test_result_fields_populated():
    res = run_experiment(MetBench(iterations=2), "uniform", keep_trace=True)
    assert res.workload == "metbench"
    assert res.scheduler == "uniform"
    assert res.exec_time > 0
    assert set(res.tasks) == {"P1", "P2", "P3", "P4"}
    assert res.trace is not None
    assert res.kernel is not None
    for tr in res.tasks.values():
        assert tr.priority is None  # dynamic
        assert 0 <= tr.pct_comp <= 100


def test_keep_trace_false_drops_heavy_handles():
    res = run_experiment(MetBench(iterations=2), "cfs", keep_trace=False)
    assert res.trace is None
    assert res.kernel is None
    assert res.launched is None
    assert res.tasks  # measurements survive


@pytest.mark.parametrize(
    "make_run",
    [
        pytest.param(
            lambda: (MetBench(iterations=4), "uniform", None), id="metbench-uniform"
        ),
        pytest.param(
            lambda: (Siesta(scf_steps=1), "cfs", NoiseDaemons()), id="siesta-noise-cfs"
        ),
    ],
)
def test_unkept_run_returns_what_a_kept_run_returns(make_run):
    """An unkept run skips the PMU and the raw event log, and nothing it
    returns may move because of that."""
    results = {}
    for keep in (False, True):
        workload, sched, noise = make_run()
        results[keep] = run_experiment(workload, sched, noise=noise, keep_trace=keep)
    unkept, kept = results[False], results[True]
    assert unkept.exec_time == kept.exec_time
    assert unkept.tasks == kept.tasks
    assert unkept.priority_history == kept.priority_history
    assert any(kept.priority_history.values()) == (sched != "cfs")
    assert unkept.priority_changes == kept.priority_changes
    assert unkept.mean_wakeup_latency == kept.mean_wakeup_latency
    assert unkept.max_wakeup_latency == kept.max_wakeup_latency
    pmu = kept.kernel.pmu
    counters = [pmu.context_counters(cpu) for cpu in range(kept.kernel.machine.n_cpus)]
    assert all(c.busy_time > 0 and c.work_done > 0 for c in counters)
    assert kept.trace.events


def test_static_priorities_fixed_in_result():
    res = run_experiment(
        MetBench(iterations=2),
        "static",
        static_priorities={"P2": 6, "P4": 6},
        keep_trace=False,
    )
    assert res.tasks["P2"].priority == 6
    assert res.tasks["P1"].priority == 4
    assert res.priority_changes == 0


def test_improvement_over():
    a = run_experiment(MetBench(iterations=2), "cfs", keep_trace=False)
    b = run_experiment(MetBench(iterations=2), "uniform", keep_trace=False)
    assert b.improvement_over(a) == pytest.approx(
        100.0 * (a.exec_time - b.exec_time) / a.exec_time
    )


def test_until_cuts_run_short():
    res = run_experiment(MetBench(iterations=50), "cfs", until=1.0, keep_trace=False)
    assert res.exec_time == pytest.approx(1.0)


def test_custom_tunables_flow_through():
    from repro.kernel.tunables import Tunables

    tun = Tunables()
    tun.set("hpcsched/max_prio", 5)
    res = run_experiment(
        MetBench(iterations=4), "uniform", tunables=tun, keep_trace=True
    )
    for hist in res.priority_history.values():
        for _, prio in hist:
            assert prio <= 5
