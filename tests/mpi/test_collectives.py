"""Collective operations: barrier, bcast, reduce, allreduce."""

import pytest

from repro.mpi.comm import Communicator
from repro.mpi.process import MPIRank
from repro.mpi.runtime import MPIRuntime


def launch(kernel, factories, cpus=None):
    rt = MPIRuntime(kernel)
    cpus = cpus or list(range(len(factories)))
    tasks = []
    for rank, factory in enumerate(factories):
        mpi = MPIRank(rt, rank)
        task = kernel.create_task(f"r{rank}", cpus_allowed=[cpus[rank]])
        task.program = factory(mpi)
        rt.bind(rank, task)
        tasks.append((task, cpus[rank]))
    for task, cpu in tasks:
        kernel.start_task(task, cpu=cpu)
    return rt, [t for t, _ in tasks]


def barrier_prog(kernel, works, releases):
    def make(rank):
        def factory(mpi):
            def prog():
                yield mpi.compute(works[rank])
                yield mpi.barrier()
                releases.append((rank, kernel.now))

            return prog()

        return factory

    return make


def test_barrier_releases_together(quiet_kernel):
    releases = []
    works = [0.01, 0.05, 0.02, 0.03]
    make = barrier_prog(quiet_kernel, works, releases)
    launch(quiet_kernel, [make(r) for r in range(4)])
    quiet_kernel.run()
    assert len(releases) == 4
    times = [t for _, t in releases]
    assert max(times) - min(times) < 1e-9  # all released at one instant
    # and nobody left before the slowest rank arrived (0.05 units of
    # work, partly at SMT-equal speed, partly in ST mode)
    assert min(times) > 0.02


def test_every_rank_blocks_at_barrier_even_the_last(quiet_kernel):
    """The last arriver also sleeps (the detector's iteration source)."""
    releases = []
    works = [0.001, 0.05]
    make = barrier_prog(quiet_kernel, works, releases)
    rt, tasks = launch(quiet_kernel, [make(0), make(1)], cpus=[0, 2])
    quiet_kernel.run()
    # the slow rank's release is later than its own arrival
    assert releases[0][1] == releases[1][1]
    assert releases[0][1] > 0.05 / 2.1  # work at ST speed + tree delay


def test_repeated_barriers_form_rounds(quiet_kernel):
    count = 5
    hits = []

    def make(rank, work):
        def factory(mpi):
            def prog():
                for it in range(count):
                    yield mpi.compute(work)
                    yield mpi.barrier()
                    hits.append((it, rank))

            return prog()

        return factory

    launch(quiet_kernel, [make(0, 0.01), make(1, 0.03)], cpus=[0, 2])
    quiet_kernel.run()
    assert len(hits) == 2 * count
    # iterations strictly ordered: all of round i precede round i+1
    rounds = [it for it, _ in hits]
    assert rounds == sorted(rounds)


def test_barrier_release_is_one_event_waking_in_arrival_order(quiet_kernel):
    """A completed collective schedules a single release event, and it
    wakes the waiters in the order they arrived."""
    sim = quiet_kernel.sim
    labels = []
    at, after = sim.at, sim.after

    def counting_at(time, fn, priority=0, label=""):
        labels.append(label)
        return at(time, fn, priority, label)

    def counting_after(delay, fn, priority=0, label=""):
        labels.append(label)
        return after(delay, fn, priority, label)

    sim.at, sim.after = counting_at, counting_after
    woken = []
    wake_up = quiet_kernel.wake_up

    def recording_wake_up(task):
        woken.append(int(task.name[1:]))
        return wake_up(task)

    quiet_kernel.wake_up = recording_wake_up
    releases = []
    works = [0.05, 0.01, 0.07, 0.03, 0.02, 0.06, 0.04, 0.08]
    make = barrier_prog(quiet_kernel, works, releases)
    rt, _ = launch(
        quiet_kernel, [make(r) for r in range(8)], cpus=[r % 4 for r in range(8)]
    )
    arrivals = []
    arrive = rt.collective_arrive

    def recording_arrive(comm, kind, rank):
        arrivals.append(rank)
        return arrive(comm, kind, rank)

    rt.collective_arrive = recording_arrive
    quiet_kernel.run()
    assert labels.count("mpi-barrier-release") == 1
    assert not any(lbl.startswith("mpi-barrier-release/") for lbl in labels)
    assert len(releases) == 8
    assert arrivals != sorted(arrivals)  # the order is not trivially rank order
    assert woken == arrivals


@pytest.mark.parametrize("world_first", [True, False])
def test_same_instant_collectives_release_in_completion_order(
    quiet_kernel, world_first
):
    """World and a split communicator completing at one instant (with
    equal tree delays) release at one instant: the earlier-completed
    collective's waiters wake first, each group in arrival order."""
    rt = MPIRuntime(quiet_kernel)
    for rank in range(4):
        rt.bind(rank, quiet_kernel.create_task(f"r{rank}"))
    world = rt.world
    sub = world.split(lambda r: r > 0)[True]
    assert rt._tree_delay(world.size) == rt._tree_delay(sub.size)
    woken = []
    quiet_kernel.wake_up = lambda task: woken.append(task.name)
    phases = [(world, [3, 1, 0, 2]), (sub, [2, 3, 1])]
    if not world_first:
        phases.reverse()
    for comm, order in phases:
        for rank in order:
            rt.collective_arrive(comm, "barrier", rank)
    quiet_kernel.sim.run()
    expected = [f"r{rank}" for _, order in phases for rank in order]
    assert woken == expected


def test_sub_communicator_barrier_excludes_others(quiet_kernel):
    sub_released = []
    outsider_done = []

    def member(rank):
        def factory(mpi):
            def prog():
                sub = Communicator([0, 1], name="sub")
                yield mpi.compute(0.01)
                yield mpi.barrier(sub)
                sub_released.append(rank)

            return prog()

        return factory

    def outsider(mpi):
        def prog():
            yield mpi.compute(0.001)
            outsider_done.append(True)

        return prog()

    # NB: both members construct their own Communicator object — use one
    # shared instance instead, as real code would.
    shared = Communicator([0, 1], name="sub2")

    def member_shared(rank):
        def factory(mpi):
            def prog():
                yield mpi.compute(0.01)
                yield mpi.barrier(shared)
                sub_released.append(rank)

            return prog()

        return factory

    launch(
        quiet_kernel,
        [member_shared(0), member_shared(1), outsider],
        cpus=[0, 1, 2],
    )
    quiet_kernel.run()
    assert sorted(sub_released) == [0, 1]
    assert outsider_done == [True]


def test_barrier_rejects_non_member(quiet_kernel):
    rt = MPIRuntime(quiet_kernel)
    rt.bind(0, quiet_kernel.create_task("a"))
    comm = Communicator([1, 2])
    with pytest.raises(ValueError):
        rt.collective_arrive(comm, "barrier", 0)


def test_world_collective_rejects_unbound_rank(quiet_kernel):
    rt = MPIRuntime(quiet_kernel)
    rt.bind(0, quiet_kernel.create_task("a"))
    rt.bind(1, quiet_kernel.create_task("b"))
    with pytest.raises(ValueError):
        rt.collective_arrive(rt.world, "barrier", 5)


def test_world_tracks_incremental_binds(quiet_kernel):
    """``world`` is built once per read-after-bind and always spans
    every bound rank in rank order."""
    rt = MPIRuntime(quiet_kernel)
    rt.bind(2, quiet_kernel.create_task("c"))
    first = rt.world
    assert first.ranks == (2,)
    assert rt.world is first  # cached until the next bind
    rt.bind(0, quiet_kernel.create_task("a"))
    rt.bind(1, quiet_kernel.create_task("b"))
    assert rt.world.ranks == (0, 1, 2)
    assert all(rank in rt.world for rank in rt.tasks)


@pytest.mark.parametrize("kind", ["bcast", "reduce", "allreduce"])
def test_other_collectives_synchronize(quiet_kernel, kind):
    done = []

    def make(rank, work):
        def factory(mpi):
            def prog():
                yield mpi.compute(work)
                yield getattr(mpi, kind)()
                done.append((rank, quiet_kernel.now))

            return prog()

        return factory

    launch(quiet_kernel, [make(0, 0.001), make(1, 0.02)], cpus=[0, 2])
    quiet_kernel.run()
    assert len(done) == 2
    t0, t1 = done[0][1], done[1][1]
    assert abs(t0 - t1) < 1e-9


def test_tree_delay_grows_with_size(quiet_kernel):
    rt = MPIRuntime(quiet_kernel)
    assert rt._tree_delay(2) < rt._tree_delay(16)


def test_collective_sleep_reason(quiet_kernel):
    from repro.mpi.process import CollectiveRequest

    rt = MPIRuntime(quiet_kernel)
    rt.bind(0, quiet_kernel.create_task("a"))
    req = CollectiveRequest(rt, Communicator([0]), "barrier", 0)
    assert req.sleep_reason == "mpi_barrier"
    assert req.is_wait
