"""Point-to-point semantics through the full kernel+MPI stack."""

import pytest

from repro.mpi.comm import ANY_SOURCE, ANY_TAG
from repro.mpi.process import MPIRank
from repro.mpi.runtime import MPIRuntime


def launch_pair(kernel, prog0, prog1):
    """Bind two rank programs and start them pinned to cpus 0 and 2."""
    rt = MPIRuntime(kernel)
    tasks = []
    for rank, (factory, cpu) in enumerate(((prog0, 0), (prog1, 2))):
        mpi = MPIRank(rt, rank)
        task = kernel.create_task(f"r{rank}")
        task.program = factory(mpi)
        rt.bind(rank, task)
        tasks.append((task, cpu))
    for task, cpu in tasks:
        kernel.start_task(task, cpu=cpu)
    return rt, [t for t, _ in tasks]


def test_send_recv_roundtrip(quiet_kernel):
    log = []

    def sender(mpi):
        def prog():
            yield mpi.compute(0.01)
            yield mpi.send(1, tag=5)
            log.append(("sent", quiet_kernel.now))

        return prog()

    def receiver(mpi):
        def prog():
            yield mpi.recv(0, tag=5)
            log.append(("recvd", quiet_kernel.now))

        return prog()

    rt, _ = launch_pair(quiet_kernel, sender, receiver)
    quiet_kernel.run()
    assert [k for k, _ in log] == ["sent", "recvd"]
    sent_t = log[0][1]
    recv_t = log[1][1]
    assert recv_t >= sent_t + rt.latency.base


def test_recv_before_send_blocks(quiet_kernel):
    order = []

    def sender(mpi):
        def prog():
            yield mpi.compute(0.05)
            order.append("computed")
            yield mpi.send(1)

        return prog()

    def receiver(mpi):
        def prog():
            yield mpi.recv(0)
            order.append("received")

        return prog()

    launch_pair(quiet_kernel, sender, receiver)
    quiet_kernel.run()
    assert order == ["computed", "received"]


def test_send_before_recv_queues_unexpected(quiet_kernel):
    def sender(mpi):
        def prog():
            yield mpi.send(1, tag=9)
            yield mpi.compute(0.01)

        return prog()

    def receiver(mpi):
        def prog():
            yield mpi.compute(0.05)  # message arrives while computing
            yield mpi.recv(0, tag=9)  # must complete instantly

        return prog()

    rt, tasks = launch_pair(quiet_kernel, sender, receiver)
    end = quiet_kernel.run()
    assert end < 0.1


def test_tag_matching_is_selective(quiet_kernel):
    got = []

    def sender(mpi):
        def prog():
            yield mpi.send(1, tag=1)
            yield mpi.send(1, tag=2)

        return prog()

    def receiver(mpi):
        def prog():
            yield mpi.recv(0, tag=2)
            got.append("tag2")
            yield mpi.recv(0, tag=1)
            got.append("tag1")

        return prog()

    launch_pair(quiet_kernel, sender, receiver)
    quiet_kernel.run()
    assert got == ["tag2", "tag1"]


def test_wildcard_recv(quiet_kernel):
    def sender(mpi):
        def prog():
            yield mpi.send(1, tag=42)

        return prog()

    def receiver(mpi):
        def prog():
            yield mpi.recv(ANY_SOURCE, ANY_TAG)

        return prog()

    launch_pair(quiet_kernel, sender, receiver)
    end = quiet_kernel.run()
    assert end < 0.01


def test_fifo_ordering_same_channel(quiet_kernel):
    """Messages on one (src, dst, tag) channel are received in order."""
    seen = []

    def sender(mpi):
        def prog():
            for i in range(5):
                yield mpi.send(1, tag=0, size=i)

        return prog()

    def receiver(mpi):
        def prog():
            for _ in range(5):
                yield mpi.recv(0, tag=0)
                st = mpi.runtime._states[1]
                seen.append(len(st.unexpected))

        return prog()

    launch_pair(quiet_kernel, sender, receiver)
    quiet_kernel.run()
    assert len(seen) == 5


def test_send_to_unknown_rank_rejected(quiet_kernel):
    rt = MPIRuntime(quiet_kernel)
    task = quiet_kernel.create_task("r0")
    rt.bind(0, task)
    with pytest.raises(ValueError):
        rt.post_send(0, 99, 0, 0)


def test_double_bind_rejected(quiet_kernel):
    rt = MPIRuntime(quiet_kernel)
    rt.bind(0, quiet_kernel.create_task("a"))
    with pytest.raises(ValueError):
        rt.bind(0, quiet_kernel.create_task("b"))


def test_message_counters(quiet_kernel):
    def sender(mpi):
        def prog():
            yield mpi.send(1)
            yield mpi.send(1)

        return prog()

    def receiver(mpi):
        def prog():
            yield mpi.recv(0)
            yield mpi.recv(0)

        return prog()

    rt, _ = launch_pair(quiet_kernel, sender, receiver)
    quiet_kernel.run()
    assert rt.messages_sent == 2
    assert rt.messages_delivered == 2


def test_latency_scales_with_size(quiet_kernel):
    times = {}

    def sender(mpi):
        def prog():
            yield mpi.send(1, tag=1, size=0)
            yield mpi.send(1, tag=2, size=10_000_000)

        return prog()

    def receiver(mpi):
        def prog():
            yield mpi.recv(0, tag=1)
            times["small"] = quiet_kernel.now
            yield mpi.recv(0, tag=2)
            times["big"] = quiet_kernel.now

        return prog()

    launch_pair(quiet_kernel, sender, receiver)
    quiet_kernel.run()
    assert times["big"] - times["small"] >= 0.009  # 10MB at 1GB/s
