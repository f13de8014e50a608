"""Kernel-level fast-forward equivalence and re-arm races.

Every test runs the same scenario twice — fast-forward on and off — and
asserts the *traces are identical* (same scheduler decisions at the same
instants) while the fast-forward run processes fewer events.  The races
pinned here are the ones where a wrong re-arm walk would silently shift
a balance round:

* witness invalidated at the *exact* instant of an elided balance fire
  (both same-instant orderings: invalidator before and after the
  fire),
* balance-timer re-arm after ``migrate()`` of a RUNNING task,
  including under the detector heuristic,
* a kernel whose parked timers outlive its last task and revive when
  work lands again (the dead window).
"""

import pytest

from repro.kernel import Compute, Kernel, Sleep
from repro.kernel.core_sched import EVPRIO_BALANCE
from repro.power5.machine import Machine, MachineTopology
from repro.power5.perfmodel import TableDrivenModel
from repro.simcore.engine import Simulator
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
    timer, by the same float arithmetic the kernel uses (anchored at the
    first start_task, assumed to happen at t=0)."""
    interval = k.tunables.loadbalance_interval
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
def test_flag_defaults_on():
    # Elision is the shipped configuration; fastforward=False is only
    # the non-eliding reference for twin runs.
    assert Kernel().fastforward is True
    assert Kernel(fastforward=False).fastforward is False


def test_saturated_kernel_parks_balance_and_matches_stock():
    # One hog per CPU: nothing queued, so every balance fire is a no-op
    # re-arm — all four timers park and never touch the heap.
    def scenario(k):
        for cpu in k.machine.cpu_ids:
            k.spawn(f"hog{cpu}", _hog(0.5), cpu=cpu)

    on, off = twin_run(scenario)
    assert on.sim.events_processed < off.sim.events_processed
    assert on.balancer.next_fire  # the timers started
    assert on.balancer.elided == 0  # parked throughout: nothing walked
    assert on.balancer.parked == len(on.machine.cpu_ids)


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
    # the 0→1 migratable edge must re-arm the parked timers so the
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
# Race 1: witness invalidated at the exact elided balance fire
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "prio", [1, EVPRIO_BALANCE + 3], ids=["before-chain", "after-chain"]
)
def test_witness_broken_exactly_on_chain_point(prio):
    # Four running hogs (queued == 0 → timers parked).  The imbalance
    # lands on cpu0 at exactly cpu1's 4th serial fire instant: a fire
    # of the loaded CPU itself pulls nothing, so only another CPU's
    # fire shows the tie order in the trace.  With the invalidator
    # *before* the balance fire in heap order (prio 1) the re-armed
    # timer must still fire at that same instant and pull; with it
    # *after* (prio 9) the serial fire preceded it, saw an inert
    # kernel, and the next real fire is one interval later.  Both
    # orderings must replay the stock scheduler bit-for-bit.
    def scenario(k):
        for cpu in k.machine.cpu_ids:
            k.spawn(f"hog{cpu}", _hog(3.0), cpu=cpu)
        t_star = _balance_points(k, cpu=1, count=4)[-1]

        def pile_on():
            # Two extra unpinned tasks on cpu0: imbalance of 2, enough
            # for the periodic balancer to pull one away.
            k.spawn("x0", _hog(1.0), cpu=0)
            k.spawn("x1", _hog(1.0), cpu=0)

        k.sim.at(t_star, pile_on, priority=prio)

    on, off = twin_run(scenario)
    assert on.migrations == off.migrations > 0


# ----------------------------------------------------------------------
# Race 2: re-arm after migrate() of a RUNNING task
# ----------------------------------------------------------------------
def test_balance_rearm_after_migrating_running_task():
    # All timers parked (queued == 0).  migrate() of a RUNNING task onto
    # a busy CPU creates the first queued task — the enqueue edge inside
    # migrate must re-arm the timers mid-event so the following balance
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
    # the balance timers correctly.)
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


# ----------------------------------------------------------------------
# Dead window: timers parked through the last exit, then revived
# ----------------------------------------------------------------------
def _dead_window_trace(ff, gap, pinned_first):
    """Kernel A's four pinned 0.1 s hogs leave its timers born parked,
    and A goes dead at about 0.1 s while kernel B's pinned 2 s hog keeps
    the shared run alive.  At ``0.1 + gap`` work lands on A's cpu0:
    three unpinned hogs, or with ``pinned_first`` one pinned hog (A is
    live again but nothing can migrate) and the unpinned ones 0.2 s
    later.  Returns A's trace."""
    sim = Simulator()
    a, b = (
        Kernel(
            machine=Machine(MachineTopology(), TableDrivenModel()),
            sim=sim, trace=TraceCollector(), fastforward=ff,
        )
        for _ in range(2)
    )
    for cpu in a.machine.cpu_ids:
        a.spawn(f"a{cpu}", _hog(0.1), cpu=cpu, cpus_allowed=[cpu])
    b.spawn("b", _hog(2.0), cpu=0, cpus_allowed=[0])

    def land():
        for i in range(3):
            a.spawn(f"x{i}", _hog(0.5), cpu=0)

    t = 0.1 + gap
    if pinned_first:
        sim.at(t, lambda: a.spawn("p", _hog(0.5), cpu=0, cpus_allowed=[0]),
               priority=1)
        t += 0.2
    sim.at(t, land, priority=1)
    sim.run(stop_when=lambda: a.live_tasks + b.live_tasks == 0)
    return _trace_of(a)


@pytest.mark.parametrize(
    "gap, pinned_first", [(0.02, False), (0.3, False), (0.02, True)]
)
def test_dead_window_revival_matches_stock(gap, pinned_first):
    # An always-armed timer of A dies at its first fire in the dead
    # window; a parked one must die at that same point when work lands
    # on A again, and a timer with no point there must live on.  A gap
    # of 0.02 kills two of A's timers, 0.3 all four.  With pinned work
    # first, A revives at 0.12 and its two surviving timers stay parked:
    # when unpinned work lands at 0.32 their walk must not treat the
    # live span after the revival as dead.
    assert _dead_window_trace(True, gap, pinned_first) == _dead_window_trace(
        False, gap, pinned_first
    )
