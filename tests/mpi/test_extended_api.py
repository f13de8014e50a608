"""MPI API tests: a single-handle wait, a symmetric exchange, and two
collective kinds in flight at once."""

from tests.mpi.test_collectives import launch


def test_wait_single_handle(quiet_kernel):
    got = []

    def sender(mpi):
        def prog():
            yield mpi.compute(0.02)
            mpi.isend(1, tag=0)
            yield mpi.compute(0.001)

        return prog()

    def receiver(mpi):
        def prog():
            h = mpi.irecv(0, tag=0)
            yield mpi.waitall([h])
            got.append(h.complete)

        return prog()

    launch(quiet_kernel, [sender, receiver], cpus=[0, 2])
    quiet_kernel.run()
    assert got == [True]


def test_sendrecv_exchange_is_deadlock_free(quiet_kernel):
    """Both ranks exchange with each other simultaneously — the classic
    pattern that deadlocks with naive blocking sends; posting both
    transfers before blocking (BT-MZ's pattern) cannot."""
    done = []

    def make(rank, peer):
        def factory(mpi):
            def prog():
                yield mpi.compute(0.01 * (rank + 1))
                yield mpi.waitall([mpi.isend(peer), mpi.irecv(peer)])
                done.append(rank)

            return prog()

        return factory

    launch(quiet_kernel, [make(0, 1), make(1, 0)], cpus=[0, 2])
    end = quiet_kernel.run()
    assert sorted(done) == [0, 1]
    assert end < 0.1


def test_collectives_of_different_kinds_do_not_interfere(quiet_kernel):
    """A barrier and an allreduce in flight concurrently keep separate
    arrival counters."""
    order = []

    def a(mpi):
        def prog():
            yield mpi.barrier()
            order.append("a-barrier")
            yield mpi.allreduce()
            order.append("a-allreduce")

        return prog()

    def b(mpi):
        def prog():
            yield mpi.barrier()
            order.append("b-barrier")
            yield mpi.allreduce()
            order.append("b-allreduce")

        return prog()

    launch(quiet_kernel, [a, b], cpus=[0, 2])
    quiet_kernel.run()
    assert set(order[:2]) == {"a-barrier", "b-barrier"}
    assert set(order[2:]) == {"a-allreduce", "b-allreduce"}
