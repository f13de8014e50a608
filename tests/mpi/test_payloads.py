"""Payload delivery: the yield expression of recv returns data."""

import pytest

from repro.kernel.syscalls import Sleep
from tests.mpi.test_collectives import launch


def test_recv_yields_payload_blocking_path(quiet_kernel):
    got = []

    def sender(mpi):
        def prog():
            yield mpi.compute(0.01)
            yield mpi.send(1, tag=1, payload={"value": 42})

        return prog()

    def receiver(mpi):
        def prog():
            data = yield mpi.recv(0, tag=1)  # blocks: sender computes first
            got.append(data)

        return prog()

    launch(quiet_kernel, [sender, receiver], cpus=[0, 2])
    quiet_kernel.run()
    assert got == [{"value": 42}]


def test_recv_yields_payload_fast_path(quiet_kernel):
    got = []

    def sender(mpi):
        def prog():
            yield mpi.send(1, tag=1, payload="hello")

        return prog()

    def receiver(mpi):
        def prog():
            yield mpi.compute(0.02)  # message arrives while computing
            data = yield mpi.recv(0, tag=1)
            got.append(data)

        return prog()

    launch(quiet_kernel, [sender, receiver], cpus=[0, 2])
    quiet_kernel.run()
    assert got == ["hello"]


def test_payloadless_recv_yields_none(quiet_kernel):
    got = []

    def sender(mpi):
        def prog():
            yield mpi.send(1, tag=0)

        return prog()

    def receiver(mpi):
        def prog():
            data = yield mpi.recv(0, tag=0)
            got.append(data)

        return prog()

    launch(quiet_kernel, [sender, receiver], cpus=[0, 2])
    quiet_kernel.run()
    assert got == [None]


def test_other_requests_yield_none(quiet_kernel):
    got = []

    def solo(mpi):
        def prog():
            got.append((yield mpi.compute(0.01)))
            got.append((yield Sleep(0.001)))
            got.append((yield mpi.barrier()))

        return prog()

    launch(quiet_kernel, [solo], cpus=[0])
    quiet_kernel.run()
    assert got == [None, None, None]


def test_ring_value_passing(quiet_kernel):
    """A token accumulates rank ids around a ring — end-to-end payload
    semantics across four ranks."""
    final = []

    def make(rank, n):
        def factory(mpi):
            def prog():
                if rank == 0:
                    yield mpi.send(1, tag=0, payload=[0])
                    token = yield mpi.recv(n - 1, tag=0)
                    final.append(token)
                else:
                    token = yield mpi.recv(rank - 1, tag=0)
                    yield mpi.compute(0.001)
                    yield mpi.send((rank + 1) % n, tag=0, payload=token + [rank])

            return prog()

        return factory

    launch(quiet_kernel, [make(r, 4) for r in range(4)])
    quiet_kernel.run()
    assert final == [[0, 1, 2, 3]]


def test_payloads_do_not_break_full_experiments():
    """Regression guard: the send()-based driver must leave the golden
    behaviour untouched."""
    from repro.experiments import metbench
    from tests.test_goldens import _load_goldens

    res = metbench.run_one("cfs", iterations=8, keep_trace=False)
    assert res.exec_time == pytest.approx(
        _load_goldens()["metbench_cfs"], rel=1e-9
    )
