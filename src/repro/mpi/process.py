"""The per-rank MPI API used by task programs.

A program receives an :class:`MPIRank` and is written as a generator::

    def worker(mpi: MPIRank):
        yield mpi.setscheduler_hpc()      # opt into HPCSched (one line!)
        for _ in range(iterations):
            yield mpi.compute(load)
            yield mpi.barrier()

Blocking operations (``recv``, ``waitall``, collectives) are *yielded*;
immediate operations (``isend``, ``irecv``) are plain method calls that
return request handles, exactly like their MPI counterparts return
``MPI_Request``::

    reqs = [mpi.isend(n, tag=7) for n in neighbors]
    reqs += [mpi.irecv(n, tag=7) for n in neighbors]
    yield mpi.compute(zone_work)
    yield mpi.waitall(reqs)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.kernel.policies import SchedPolicy
from repro.kernel.syscalls import Compute, KernelRequest, SetScheduler, Sleep
from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Communicator
from repro.mpi.requests import RequestHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core_sched import Kernel
    from repro.kernel.task import Task
    from repro.mpi.runtime import MPIRuntime


class SendRequest(KernelRequest):
    """Eager blocking send: posts the message and continues."""

    def __init__(
        self,
        runtime: "MPIRuntime",
        src: int,
        dst: int,
        tag: int,
        size: int,
        payload=None,
    ) -> None:
        self.runtime, self.src, self.dst = runtime, src, dst
        self.tag, self.size, self.payload = tag, size, payload

    def execute(self, kernel, task) -> bool:
        self.runtime.post_send(
            self.src, self.dst, self.tag, self.size, payload=self.payload
        )
        return True

    sleep_reason = "mpi_send"


class RecvRequest(KernelRequest):
    """Blocking receive: sleeps until a matching message is delivered.

    The yield expression evaluates to the message payload::

        value = yield mpi.recv(0, tag=1)
    """

    is_wait = True
    sleep_reason = "mpi_recv"

    def __init__(self, runtime: "MPIRuntime", rank: int, source: int, tag: int) -> None:
        self.runtime, self.rank, self.source, self.tag = runtime, rank, source, tag

    def execute(self, kernel, task) -> bool:
        msg = self.runtime.try_recv(self.rank, self.source, self.tag)
        if msg is not None:
            task._syscall_result = msg.payload
            return True
        self.runtime.set_blocking_recv(self.rank, self.source, self.tag)
        return False


class WaitallRequest(KernelRequest):
    """MPI_Waitall: sleeps until every handle has completed."""

    is_wait = True
    sleep_reason = "mpi_waitall"

    def __init__(self, runtime: "MPIRuntime", rank: int, handles: Sequence[RequestHandle]) -> None:
        self.runtime, self.rank, self.handles = runtime, rank, list(handles)

    def execute(self, kernel, task) -> bool:
        if self.runtime.waitall_ready(self.handles):
            return True
        self.runtime.set_waitall(self.rank, self.handles)
        return False


class CollectiveRequest(KernelRequest):
    """Barrier/bcast/reduce/allreduce arrival."""

    is_wait = True

    def __init__(self, runtime: "MPIRuntime", comm: Communicator, kind: str, rank: int) -> None:
        self.runtime, self.comm, self.kind, self.rank = runtime, comm, kind, rank

    def execute(self, kernel, task) -> bool:
        return self.runtime.collective_arrive(self.comm, self.kind, self.rank)

    @property
    def sleep_reason(self) -> str:
        return f"mpi_{self.kind}"


class MPIRank:
    """The handle a rank program uses to talk to MPI and the kernel."""

    def __init__(self, runtime: "MPIRuntime", rank: int) -> None:
        self.runtime = runtime
        self.rank = rank

    # -- environment ----------------------------------------------------
    @property
    def world(self) -> Communicator:
        return self.runtime.world

    @property
    def size(self) -> int:
        return self.world.size

    # -- compute / kernel -------------------------------------------------
    def compute(self, work: float) -> Compute:
        """Execute ``work`` units (seconds at SMT-equal baseline speed)."""
        return Compute(work)

    def sleep(self, duration: float) -> Sleep:
        """Block for ``duration`` simulated seconds (non-MPI sleep)."""
        return Sleep(duration)

    def setscheduler_hpc(self) -> SetScheduler:
        """Opt into the SCHED_HPC policy — the single source change an
        application needs (paper §IV-A)."""
        return SetScheduler(SchedPolicy.HPC)

    # -- point-to-point ---------------------------------------------------
    def send(
        self, dest: int, tag: int = 0, size: int = 0, payload=None
    ) -> SendRequest:
        """Eager send: the message is posted and the sender continues."""
        return SendRequest(self.runtime, self.rank, dest, tag, size, payload)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Blocking receive; ``yield``s the message payload."""
        return RecvRequest(self.runtime, self.rank, source, tag)

    def isend(self, dest: int, tag: int = 0, size: int = 0) -> RequestHandle:
        """Immediate send; the handle completes when the message is
        delivered (rendezvous/ack semantics).  Plain call — do not
        yield."""
        handle = RequestHandle("isend", self.rank)
        self.runtime.post_send(self.rank, dest, tag, size, isend_handle=handle)
        return handle

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RequestHandle:
        """Immediate receive posting; completes when a matching message
        is delivered.  Plain call — do not yield."""
        return self.runtime.post_irecv(self.rank, source, tag)

    def waitall(self, handles: Sequence[RequestHandle]) -> WaitallRequest:
        """MPI_Waitall: block until every handle has completed."""
        return WaitallRequest(self.runtime, self.rank, handles)

    def wait(self, handle: RequestHandle) -> WaitallRequest:
        """MPI_Wait: block until one request completes."""
        return WaitallRequest(self.runtime, self.rank, [handle])

    def sendrecv(
        self,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        size: int = 0,
    ) -> WaitallRequest:
        """MPI_Sendrecv: simultaneous exchange (deadlock-free by
        construction: both transfers are posted before blocking)."""
        handles = [
            self.isend(dest, tag=sendtag, size=size),
            self.irecv(source, tag=recvtag),
        ]
        return WaitallRequest(self.runtime, self.rank, handles)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """MPI_Iprobe: is a matching message already delivered?
        Plain call — do not yield."""
        return self.runtime.has_message(self.rank, source, tag)

    # -- collectives --------------------------------------------------------
    def barrier(self, comm: Optional[Communicator] = None) -> CollectiveRequest:
        """MPI_Barrier over ``comm`` (default: world)."""
        return CollectiveRequest(self.runtime, comm or self.world, "barrier", self.rank)

    def bcast(self, comm: Optional[Communicator] = None) -> CollectiveRequest:
        """MPI_Bcast (timing only; data is not modelled)."""
        return CollectiveRequest(self.runtime, comm or self.world, "bcast", self.rank)

    def reduce(self, comm: Optional[Communicator] = None) -> CollectiveRequest:
        """MPI_Reduce (timing only)."""
        return CollectiveRequest(self.runtime, comm or self.world, "reduce", self.rank)

    def allreduce(self, comm: Optional[Communicator] = None) -> CollectiveRequest:
        """MPI_Allreduce (timing only)."""
        return CollectiveRequest(self.runtime, comm or self.world, "allreduce", self.rank)

    def gather(self, comm: Optional[Communicator] = None) -> CollectiveRequest:
        """MPI_Gather (timing only)."""
        return CollectiveRequest(self.runtime, comm or self.world, "gather", self.rank)

    def scatter(self, comm: Optional[Communicator] = None) -> CollectiveRequest:
        """MPI_Scatter (timing only)."""
        return CollectiveRequest(self.runtime, comm or self.world, "scatter", self.rank)

    def alltoall(self, comm: Optional[Communicator] = None) -> CollectiveRequest:
        """MPI_Alltoall (timing only)."""
        return CollectiveRequest(self.runtime, comm or self.world, "alltoall", self.rank)
