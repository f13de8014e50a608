"""Load-balancer tests: CPU selection, idle pull, periodic balance."""

import pytest

from repro.kernel import Compute, Kernel, Sleep
from repro.kernel.policies import TaskState
from tests.conftest import pure_compute_program


def test_select_cpu_prefers_idle_prev(quiet_kernel):
    k = quiet_kernel
    t = k.create_task("t", pure_compute_program(0.1))
    t.cpu = 2
    assert k.balancer.select_cpu(t, prefer=2) == 2


def test_select_cpu_least_loaded(quiet_kernel):
    k = quiet_kernel
    k.spawn("a", pure_compute_program(1.0), cpu=0)
    k.spawn("b", pure_compute_program(1.0), cpu=1)
    t = k.create_task("t", pure_compute_program(0.1))
    assert k.balancer.select_cpu(t) in (2, 3)


def test_select_cpu_respects_affinity(quiet_kernel):
    k = quiet_kernel
    k.spawn("a", pure_compute_program(1.0), cpu=3)
    t = k.create_task("t", pure_compute_program(0.1), cpus_allowed=[3])
    assert k.balancer.select_cpu(t) == 3


def test_select_cpu_empty_mask_raises(quiet_kernel):
    k = quiet_kernel
    t = k.create_task("t", pure_compute_program(0.1), cpus_allowed=[])
    with pytest.raises(ValueError):
        k.balancer.select_cpu(t)


def test_fork_balancing_spreads_tasks(quiet_kernel):
    """Unpinned spawns land on distinct CPUs."""
    k = quiet_kernel
    tasks = [k.spawn(f"t{i}", pure_compute_program(0.5)) for i in range(4)]
    cpus = {t.cpu for t in tasks}
    assert cpus == {0, 1, 2, 3}


def test_idle_pull_steals_queued_task(quiet_kernel):
    k = quiet_kernel
    # two tasks stacked on cpu0, cpu2 idle
    a = k.spawn("a", pure_compute_program(0.5), cpu=0)
    b = k.spawn("b", pure_compute_program(0.5), cpu=0)
    assert b.state == TaskState.READY
    pulled = k.balancer.idle_pull(2)
    assert pulled is b
    assert b.cpu == 2


def test_idle_pull_nothing_to_steal(quiet_kernel):
    k = quiet_kernel
    k.spawn("a", pure_compute_program(0.5), cpu=0)
    assert k.balancer.idle_pull(2) is None


def test_idle_pull_respects_affinity(quiet_kernel):
    k = quiet_kernel
    k.spawn("a", pure_compute_program(0.5), cpu=0, cpus_allowed=[0])
    k.spawn("b", pure_compute_program(0.5), cpu=0, cpus_allowed=[0])
    assert k.balancer.idle_pull(2) is None


def test_periodic_needs_bigger_imbalance(quiet_kernel):
    k = quiet_kernel
    k.spawn("a", pure_compute_program(0.5), cpu=0)
    k.spawn("b", pure_compute_program(0.5), cpu=1)
    # diff of 1: periodic balance must not thrash
    assert k.balancer.periodic(2) is None


def test_overload_resolves_via_scheduling(quiet_kernel):
    """Three unpinned hogs + one short task: everyone finishes, and the
    balancer spreads the runnable tasks across CPUs."""
    k = quiet_kernel
    tasks = [k.spawn(f"t{i}", pure_compute_program(0.3)) for i in range(6)]
    k.run()
    assert all(t.state == TaskState.EXITED for t in tasks)


def test_migratable_census_tracks_masks(quiet_kernel):
    """``_migratable`` counts started tasks whose mask allows >1 CPU —
    the fast-forward balance witness's proof obligation for parking
    balance timers."""
    k = quiet_kernel
    assert k._migratable == 0
    pinned = k.spawn("p", pure_compute_program(0.2), cpu=0, cpus_allowed=[0])
    assert k._migratable == 0
    free = k.spawn("f", pure_compute_program(0.2), cpu=1)
    assert k._migratable == 1
    # Pinning the free task drops the census; widening restores it.
    k.set_affinity(free, {1})
    assert k._migratable == 0
    k.set_affinity(free, {0, 1})
    assert k._migratable == 1
    k.set_affinity(pinned, None)
    assert k._migratable == 2
    k.run()
    assert k._migratable == 0



def test_pinned_only_kernel_never_pulls(monkeypatch):
    """SIESTA pins every rank and every noise daemon, so the migratable
    census stays 0: neither an idle pull nor a periodic balance round
    ever reaches the busiest-peer scan."""
    from repro.experiments.siesta import run_one
    from repro.kernel.loadbalance import LoadBalancer

    pulls = []
    real = LoadBalancer._pull

    def counted(self, cpu, min_imbalance):
        pulls.append(cpu)
        return real(self, cpu, min_imbalance)

    monkeypatch.setattr(LoadBalancer, "_pull", counted)
    res = run_one("cfs", scf_steps=1, noise=True, keep_trace=False)
    assert res.exec_time > 0
    assert pulls == []


def test_unpinned_task_is_still_idle_pulled(quiet_kernel, monkeypatch):
    """A CPU going idle steals an unpinned task queued behind a busy
    CPU's current task: the migratable guard lets the pull through."""
    from repro.kernel.loadbalance import LoadBalancer

    pulled = []
    real = LoadBalancer.idle_pull

    def recorded(self, cpu):
        task = real(self, cpu)
        pulled.append(task)
        return task

    monkeypatch.setattr(LoadBalancer, "idle_pull", recorded)
    k = quiet_kernel
    # cpu1 goes idle long before the first balance round (64 ms).
    k.spawn("short", pure_compute_program(0.001), cpu=1, cpus_allowed=[1])
    k.spawn("busy", pure_compute_program(0.5), cpu=0, cpus_allowed=[0])
    free = k.spawn("free", pure_compute_program(0.5), cpu=0)
    k.run()
    assert k.migrations > 0
    assert free in pulled
