"""Kernel-level fast-forward equivalence and re-arm races.

Every test runs the same scenario twice — fast-forward on and off — and
asserts the *traces are identical* (same scheduler decisions at the same
instants) while the fast-forward run processes fewer events.  The races
pinned here are the ones where a wrong re-arm walk would silently shift
a balance round:

* witness invalidated at the *exact* instant of an elided chain point
  (both same-instant orderings: invalidator before and after the chain
  fire),
* a tunable interval change delivered in the same batched instant as
  the witness-breaking event,
* balance-chain re-arm after ``migrate()`` of a RUNNING task (extends
  PR 4's regression family), including under the detector heuristic.
"""

import pytest

from repro.kernel import Compute, Kernel, Sleep
from repro.kernel.core_sched import EVPRIO_BALANCE
from repro.power5.machine import Machine, MachineTopology
from repro.power5.perfmodel import TableDrivenModel
from repro.trace.collector import TraceCollector
from tests.conftest import use_stock_kernels


def _kernel(fastforward):
    machine = Machine(MachineTopology(), TableDrivenModel())
    return Kernel(
        machine=machine, trace=TraceCollector(), fastforward=fastforward
    )


def _trace_of(k):
    return [(e.time, e.name, e.kind, dict(e.info)) for e in k.trace.events]


def _hog(work=2.0):
    def prog():
        yield Compute(work)

    return prog()


def twin_run(scenario, until=None):
    """Run ``scenario(kernel)`` with fast-forward on and off; assert the
    traces match exactly and return (kernel_on, kernel_off)."""
    kernels = {}
    for ff in (True, False):
        k = _kernel(fastforward=ff)
        scenario(k)
        k.run(until)
        kernels[ff] = k
    on, off = kernels[True], kernels[False]
    assert _trace_of(on) == _trace_of(off)
    assert on.sim.now == off.sim.now
    return on, off


def _balance_points(k, cpu, count):
    """The first ``count`` serial balance-fire instants of ``cpu``'s
    chain, by the same float arithmetic the kernel uses (anchored at the
    first start_task, assumed to happen at t=0)."""
    interval = k.tunables.get("kernel/loadbalance_interval")
    n = len(k.machine.cpu_ids)
    i = k.machine.cpu_ids.index(cpu)
    t = interval * (i + 1) / (n + 1)
    points = [t]
    for _ in range(count - 1):
        t += interval
        points.append(t)
    return points


# ----------------------------------------------------------------------
# Baseline equivalence + elision accounting
# ----------------------------------------------------------------------
def test_saturated_kernel_parks_balance_and_matches_stock():
    # One hog per CPU: nothing queued, so every balance fire is a no-op
    # re-arm — all four chains park and never touch the heap.
    def scenario(k):
        for cpu in k.machine.cpu_ids:
            k.spawn(f"hog{cpu}", _hog(0.5), cpu=cpu)

    on, off = twin_run(scenario)
    assert on.sim.events_processed < off.sim.events_processed
    assert on._ff_balance is not None
    assert on._ff_balance.elided == 0  # parked throughout: nothing walked
    assert on._ff_balance.parked == len(on.machine.cpu_ids)


def test_pinned_tasks_park_via_migratable_witness():
    # Three tasks stacked on cpu0, all pinned: plenty queued, but with
    # no migratable task the balancer provably cannot act.
    def scenario(k):
        for i in range(3):
            k.spawn(f"p{i}", _hog(0.3), cpu=0, cpus_allowed=[0])

    on, off = twin_run(scenario)
    assert on.sim.events_processed < off.sim.events_processed
    assert on.migrations == off.migrations == 0


def test_unpinning_mid_run_unparks_and_balances_identically():
    # Queued pinned work becomes migratable mid-run via set_affinity:
    # the 0→1 migratable edge must re-arm the parked chains so the
    # steal happens at the exact serial balance instant.
    def scenario(k):
        tasks = [
            k.spawn(f"p{i}", _hog(1.0), cpu=0, cpus_allowed=[0])
            for i in range(3)
        ]
        k.sim.at(0.1, lambda: k.set_affinity(tasks[2], None), priority=1)

    on, off = twin_run(scenario)
    assert on.migrations == off.migrations > 0
    assert on.sim.events_processed < off.sim.events_processed


# ----------------------------------------------------------------------
# Race 1: witness invalidated at the exact elided chain point
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "prio", [1, EVPRIO_BALANCE + 3], ids=["before-chain", "after-chain"]
)
def test_witness_broken_exactly_on_chain_point(prio):
    # Four running hogs (queued == 0 → chains parked).  The imbalance
    # lands at exactly cpu0's 4th serial chain point.  With the
    # invalidator *before* the chain fire in heap order (prio 1) the
    # re-armed chain must still fire at that same instant; with it
    # *after* (prio 9) the serial fire preceded it, saw an inert
    # kernel, and the next real fire is one interval later.  Both
    # orderings must replay the stock scheduler bit-for-bit.
    def scenario(k):
        for cpu in k.machine.cpu_ids:
            k.spawn(f"hog{cpu}", _hog(3.0), cpu=cpu)
        t_star = _balance_points(k, cpu=0, count=4)[-1]

        def pile_on():
            # Two extra unpinned tasks on cpu0: imbalance of 2, enough
            # for the periodic balancer to pull one away.
            k.spawn("x0", _hog(1.0), cpu=0)
            k.spawn("x1", _hog(1.0), cpu=0)

        k.sim.at(t_star, pile_on, priority=prio)

    on, off = twin_run(scenario)
    assert on.migrations == off.migrations > 0


# ----------------------------------------------------------------------
# Race 2: tunable interval change in a batched same-instant group
# ----------------------------------------------------------------------
def test_interval_change_and_unpark_in_same_instant_batch():
    # At one instant, in one batch: (a) the balance interval is retimed
    # while every chain is parked, then (b) the witness breaks.  The
    # re-arm walk must use the old interval up to the change instant
    # and the new one after — exactly like the stock chain, which reads
    # the tunable at each fire.
    def scenario(k):
        for cpu in k.machine.cpu_ids:
            k.spawn(f"hog{cpu}", _hog(3.0), cpu=cpu)
        t = 0.1

        def retune():
            k.tunables.set("kernel/loadbalance_interval", 0.016)

        def pile_on():
            k.spawn("x0", _hog(1.0), cpu=0)
            k.spawn("x1", _hog(1.0), cpu=0)

        k.sim.at(t, retune, priority=2)
        k.sim.at(t, pile_on, priority=3)

    on, off = twin_run(scenario)
    assert on.migrations == off.migrations > 0
    assert on.sim.events_processed < off.sim.events_processed


def test_interval_change_while_parked_then_later_unpark():
    # Retime and unpark at *different* instants: parked anchors must be
    # walked with the old interval up to the change, then the new one.
    def scenario(k):
        for cpu in k.machine.cpu_ids:
            k.spawn(f"hog{cpu}", _hog(3.0), cpu=cpu)

        def retune():
            k.tunables.set("kernel/loadbalance_interval", 0.256)

        def pile_on():
            k.spawn("x0", _hog(1.0), cpu=0)
            k.spawn("x1", _hog(1.0), cpu=0)

        k.sim.at(0.05, retune, priority=2)
        k.sim.at(0.9, pile_on, priority=1)

    on, off = twin_run(scenario)
    assert on.migrations == off.migrations > 0


# ----------------------------------------------------------------------
# Race 3: re-arm after migrate() of a RUNNING task
# ----------------------------------------------------------------------
def test_balance_rearm_after_migrating_running_task():
    # All chains parked (queued == 0).  migrate() of a RUNNING task onto
    # a busy CPU creates the first queued task — the enqueue edge inside
    # migrate must re-arm the chains mid-event so the following balance
    # round replays exactly.
    def scenario(k):
        tasks = [
            k.spawn(f"hog{cpu}", _hog(3.0), cpu=cpu)
            for cpu in k.machine.cpu_ids
        ]
        k.sim.at(0.1, lambda: k.migrate(tasks[0], 1), priority=1)

    on, off = twin_run(scenario)
    assert on.migrations == off.migrations >= 2  # the call + a rebalance
    assert on.sim.events_processed < off.sim.events_processed


def test_detector_workload_identical_with_fastforward(monkeypatch):
    # End-to-end through the HPC detector heuristic: same completion
    # table, fewer events.  (The detector itself is wakeup-driven — it
    # owns no timer — so this pins that migrations it triggers unpark
    # the balance chains correctly.)
    from repro.experiments import metbench

    fast = metbench.run_one("adaptive", iterations=4, keep_trace=True)
    use_stock_kernels(monkeypatch)
    stock = metbench.run_one("adaptive", iterations=4, keep_trace=True)
    assert fast.exec_time == stock.exec_time
    assert fast.kernel.migrations == stock.kernel.migrations
    assert (
        fast.kernel.sim.events_processed < stock.kernel.sim.events_processed
    )


def test_cluster_elides_events_with_identical_exits(monkeypatch):
    # The serial cluster parks inert balance timers on every node's
    # kernel: the same per-rank exits as the stock (fastforward=False)
    # run, which pays for every fire.
    from repro.cluster.experiment import ladder_loads, run_cluster

    loads = ladder_loads(16)
    fast = [
        run_cluster(s, loads=loads, iterations=1, n_nodes=4)
        for s in ("block", "gang")
    ]
    use_stock_kernels(monkeypatch)
    stock = [
        run_cluster(s, loads=loads, iterations=1, n_nodes=4)
        for s in ("block", "gang")
    ]
    for f, s in zip(fast, stock):
        assert f.rank_exit == s.rank_exit
        assert 0 < f.events < s.events
