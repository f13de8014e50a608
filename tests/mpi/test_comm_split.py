"""Sub-communicator tests."""

import pytest

from repro.mpi.comm import Communicator


def test_split_communicators_are_independent(quiet_kernel):
    """Barriers on split communicators only synchronize their members."""
    from tests.mpi.test_collectives import launch

    world_ranks = [0, 1, 2, 3]
    subs = [Communicator([0, 1]), Communicator([2, 3])]
    released = []

    def make(rank):
        def factory(mpi):
            def prog():
                yield mpi.compute(0.01 * (rank + 1))
                yield mpi.barrier(subs[rank // 2])
                released.append((rank, quiet_kernel.now))

            return prog()

        return factory

    launch(quiet_kernel, [make(r) for r in world_ranks])
    quiet_kernel.run()
    times = dict(released)
    # pair (0,1) releases together, pair (2,3) together, pairs differ
    assert times[0] == pytest.approx(times[1])
    assert times[2] == pytest.approx(times[3])
    assert times[0] < times[2]
