"""isend/irecv/waitall semantics (the BT-MZ exchange pattern)."""

import pytest

from repro.mpi.process import MPIRank
from repro.mpi.runtime import MPIRuntime


def launch(kernel, factories):
    rt = MPIRuntime(kernel)
    tasks = []
    cpus = [0, 1, 2, 3]
    for rank, factory in enumerate(factories):
        mpi = MPIRank(rt, rank)
        task = kernel.create_task(f"r{rank}")
        task.program = factory(mpi)
        rt.bind(rank, task)
        tasks.append((task, cpus[rank]))
    for task, cpu in tasks:
        kernel.start_task(task, cpu=cpu)
    return rt, [t for t, _ in tasks]


def test_neighbor_exchange_completes(quiet_kernel):
    done = []

    def make(rank, nbrs, work):
        def factory(mpi):
            def prog():
                for it in range(3):
                    recvs = [mpi.irecv(n, tag=it) for n in nbrs]
                    yield mpi.compute(work)
                    sends = [mpi.isend(n, tag=it) for n in nbrs]
                    yield mpi.waitall(recvs + sends)
                done.append(rank)

            return prog()

        return factory

    factories = [
        make(0, [1, 3], 0.01),
        make(1, [0, 2], 0.02),
        make(2, [1, 3], 0.03),
        make(3, [2, 0], 0.04),
    ]
    launch(quiet_kernel, factories)
    quiet_kernel.run()
    assert sorted(done) == [0, 1, 2, 3]


def test_waitall_with_completed_handles_still_blocks_for_isend(quiet_kernel):
    """Even the slowest rank blocks briefly: isends complete at
    delivery, not at post (rendezvous/ack semantics)."""
    waits = []

    def fast(mpi):
        def prog():
            recvs = [mpi.irecv(1, tag=0)]
            yield mpi.compute(0.001)
            sends = [mpi.isend(1, tag=0)]
            yield mpi.waitall(recvs + sends)

        return prog()

    def slow(mpi):
        def prog():
            recvs = [mpi.irecv(0, tag=0)]
            yield mpi.compute(0.05)  # partner's data long arrived
            t0 = quiet_kernel.now
            sends = [mpi.isend(0, tag=0)]
            yield mpi.waitall(recvs + sends)
            waits.append(quiet_kernel.now - t0)

        return prog()

    rt, _ = launch(quiet_kernel, [fast, slow])
    quiet_kernel.run()
    assert len(waits) == 1
    assert waits[0] >= rt.latency.base  # blocked at least one delivery


def test_irecv_completes_from_unexpected_queue(quiet_kernel):
    def sender(mpi):
        def prog():
            mpi.isend(1, tag=3)  # immediate call, no yield
            yield mpi.compute(0.001)

        return prog()

    def receiver(mpi):
        def prog():
            yield mpi.compute(0.05)  # message lands before irecv posted
            h = mpi.irecv(0, tag=3)
            assert h.complete  # matched immediately from the queue
            yield mpi.waitall([h])

        return prog()

    launch(quiet_kernel, [sender, receiver])
    end = quiet_kernel.run()
    assert end < 0.1


def test_waitall_partial_completion_blocks(quiet_kernel):
    stages = []

    def sender(mpi):
        def prog():
            mpi.isend(1, tag=0)
            yield mpi.compute(0.05)
            mpi.isend(1, tag=1)
            yield mpi.compute(0.001)

        return prog()

    def receiver(mpi):
        def prog():
            h0 = mpi.irecv(0, tag=0)
            h1 = mpi.irecv(0, tag=1)
            stages.append("waiting")
            yield mpi.waitall([h0, h1])
            stages.append("done")

        return prog()

    launch(quiet_kernel, [sender, receiver])
    quiet_kernel.run()
    assert stages == ["waiting", "done"]


def test_request_handle_repr_states(quiet_kernel):
    rt = MPIRuntime(quiet_kernel)
    rt.bind(0, quiet_kernel.create_task("a"))
    rt.bind(1, quiet_kernel.create_task("b"))
    h = rt.post_irecv(0, source=1, tag=0)
    assert not h.complete
    assert "pending" in repr(h)
