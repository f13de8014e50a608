"""The MPI runtime: matching engine, blocking semantics, collectives.

One :class:`MPIRuntime` binds a set of ranks (kernel tasks) together.
All operations funnel through it:

* ``post_send`` schedules a delivery event after the latency model's
  delay; on delivery the message either satisfies a posted receive
  (waking the receiver if it sleeps on it) or lands in the unexpected
  queue,
* ``post_irecv`` matches against the unexpected queue first, then
  parks,
* blocking ``recv``/``waitall``/collectives put the caller to sleep and
  the runtime wakes it when the condition is satisfied — these sleeps
  are flagged ``is_wait`` so the HPCSched detector sees the iteration
  boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.mpi.comm import Communicator
from repro.mpi.messages import LatencyModel, Message
from repro.mpi.requests import RequestHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core_sched import Kernel
    from repro.kernel.task import Task

#: Event priority for message deliveries/wakeups (after phase completions).
_EVPRIO_DELIVERY = 1


class _RankState:
    """Per-rank matching state."""

    __slots__ = ("unexpected", "posted_recvs", "blocking_recv", "waitall")

    def __init__(self) -> None:
        #: Delivered messages with no matching receive yet, in arrival
        #: order (a list: only appended, scanned and removed from).
        self.unexpected: List[Message] = []
        #: Posted irecv handles awaiting a message, in post order.
        self.posted_recvs: List[RequestHandle] = []
        #: (source, tag) of an in-progress blocking recv, or None.
        self.blocking_recv: Optional[Tuple[int, int]] = None
        #: Handles an in-progress waitall is sleeping on, or None.
        self.waitall: Optional[List[RequestHandle]] = None


class _CollectiveState:
    """Arrival bookkeeping for one in-flight collective operation."""

    __slots__ = ("arrived", "waiters")

    def __init__(self) -> None:
        self.arrived: set = set()
        self.waiters: List[int] = []  # ranks sleeping on the collective


class MPIRuntime:
    """Binds ranks to the kernel and implements MPI semantics."""

    def __init__(
        self,
        kernel: "Kernel",
        latency: Optional[LatencyModel] = None,
        route_delay=None,
    ) -> None:
        self.kernel = kernel
        self.latency = latency or LatencyModel()
        #: Optional ``(src, dst, size) -> seconds`` override used by the
        #: cluster extension to model slower inter-node links.
        self.route_delay = route_delay
        self.tasks: Dict[int, "Task"] = {}
        #: Kernel owning each rank's task (multi-node clusters bind
        #: ranks living on different nodes; all share one Simulator).
        self._kernels: Dict[int, "Kernel"] = {}
        self._states: Dict[int, _RankState] = {}
        self._collectives: Dict[Tuple[int, str, int], _CollectiveState] = {}
        self._collective_round: Dict[Tuple[int, str], int] = {}
        self._msg_seq = 0
        #: MPI_COMM_WORLD, built lazily by :attr:`world`; ``None`` until
        #: first read after the latest :meth:`bind`.
        self._world: Optional[Communicator] = None
        #: Counters for analysis.
        self.messages_sent = 0
        self.messages_delivered = 0

    # ------------------------------------------------------------------
    # Rank registration
    # ------------------------------------------------------------------
    def bind(self, rank: int, task: "Task", kernel: Optional["Kernel"] = None) -> None:
        """Associate ``rank`` with a kernel task (and, for multi-node
        clusters, the kernel that owns it)."""
        if rank in self.tasks:
            raise ValueError(f"rank {rank} already bound")
        self.tasks[rank] = task
        self._kernels[rank] = kernel or self.kernel
        self._states[rank] = _RankState()
        self._world = None

    @property
    def world(self) -> Communicator:
        """MPI_COMM_WORLD over every bound rank, in rank order.

        Built once on first read after the last :meth:`bind`, so binding
        N ranks costs one build rather than N.
        """
        if self._world is None:
            self._world = Communicator(sorted(self.tasks), name="world")
        return self._world

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def post_send(
        self,
        src: int,
        dst: int,
        tag: int,
        size: int,
        payload=None,
        isend_handle: Optional[RequestHandle] = None,
    ) -> Message:
        """Eager send: schedule delivery, sender continues immediately.

        If ``isend_handle`` is given it completes at *delivery* time
        (rendezvous/ack semantics), so a ``waitall`` over isends blocks
        at least for the interconnect latency.
        """
        if dst not in self.tasks:
            raise ValueError(f"send to unknown rank {dst}")
        now = self.kernel.now
        delay = (
            self.route_delay(src, dst, size)
            if self.route_delay is not None
            else self.latency.delay(size)
        )
        msg = Message(
            src=src,
            dst=dst,
            tag=tag,
            size=size,
            send_time=now,
            arrival_time=now + delay,
            payload=payload,
            seq=self._msg_seq,
            isend_handle=isend_handle,
        )
        self._msg_seq += 1
        self.messages_sent += 1
        self.kernel.sim.at(
            msg.arrival_time,
            lambda: self._deliver(msg),
            priority=_EVPRIO_DELIVERY,
        )
        return msg

    def post_irecv(self, rank: int, source: int, tag: int) -> RequestHandle:
        """Post a non-blocking receive; may complete immediately from
        the unexpected queue."""
        handle = RequestHandle("irecv", rank, source, tag)
        st = self._states[rank]
        msg = self._match_unexpected(st, source, tag)
        if msg is not None:
            handle.finish(msg)
        else:
            st.posted_recvs.append(handle)
        return handle

    def try_recv(self, rank: int, source: int, tag: int) -> Optional[Message]:
        """Consume a matching delivered message, if any (blocking-recv
        fast path)."""
        return self._match_unexpected(self._states[rank], source, tag)

    def set_blocking_recv(self, rank: int, source: int, tag: int) -> None:
        """Park ``rank`` on a blocking receive for (source, tag)."""
        self._states[rank].blocking_recv = (source, tag)

    def waitall_ready(self, handles: Sequence[RequestHandle]) -> bool:
        """Whether every handle has already completed."""
        return all(h.complete for h in handles)

    def set_waitall(self, rank: int, handles: Sequence[RequestHandle]) -> None:
        """Park ``rank`` until all ``handles`` complete."""
        self._states[rank].waitall = list(handles)

    # ------------------------------------------------------------------
    # Delivery and wakeups
    # ------------------------------------------------------------------
    def _deliver(self, msg: Message) -> None:
        self.messages_delivered += 1
        if msg.isend_handle is not None:
            msg.isend_handle.finish(msg)
            self._check_waitall(msg.src)
        st = self._states[msg.dst]

        # 1. A sleeping blocking recv has absolute priority.
        if st.blocking_recv is not None:
            source, tag = st.blocking_recv
            if msg.matches(source, tag):
                st.blocking_recv = None
                # the receiver's yield expression evaluates to the payload
                self.tasks[msg.dst]._syscall_result = msg.payload
                self._wake(msg.dst)
                return

        # 2. Earliest matching posted irecv.
        for handle in st.posted_recvs:
            if not handle.complete and msg.matches(handle.source, handle.tag):
                handle.finish(msg)
                st.posted_recvs.remove(handle)
                self._check_waitall(msg.dst)
                return

        # 3. Unexpected message queue.
        st.unexpected.append(msg)

    def _check_waitall(self, rank: int) -> None:
        st = self._states[rank]
        if st.waitall is not None and all(h.complete for h in st.waitall):
            st.waitall = None
            self._wake(rank)

    def _wake(self, rank: int) -> None:
        self._kernels[rank].wake_up(self.tasks[rank])

    def _match_unexpected(
        self, st: _RankState, source: int, tag: int
    ) -> Optional[Message]:
        for msg in st.unexpected:
            if msg.matches(source, tag):
                st.unexpected.remove(msg)
                return msg
        return None

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def collective_arrive(
        self, comm: Communicator, kind: str, rank: int
    ) -> bool:
        """Record ``rank``'s arrival at a collective.

        Every participant blocks — including the last arriver, which
        still has to wait for the release message to travel the
        reduction tree.  (This also means every rank observes a proper
        wait/wakeup cycle per collective, which is what the HPCSched
        detector counts iterations with.)  Always returns ``False``.

        A completed collective schedules *one* release event, a tree
        delay after the last arrival, that wakes every waiter in arrival
        order — the same order N per-rank release events at one
        (time, priority) would fire in, at the cost of one event.
        """
        if rank not in comm:
            raise ValueError(f"rank {rank} not in {comm!r}")
        round_key = (comm.cid, kind)
        rnd = self._collective_round.setdefault(round_key, 0)
        key = (comm.cid, kind, rnd)
        cs = self._collectives.setdefault(key, _CollectiveState())
        cs.arrived.add(rank)
        cs.waiters.append(rank)
        if len(cs.arrived) == comm.size:
            # Complete: release everyone after the tree latency.
            self._collective_round[round_key] = rnd + 1
            del self._collectives[key]
            waiters = cs.waiters
            self.kernel.sim.after(
                self._tree_delay(comm.size),
                lambda: self._release(waiters),
                priority=_EVPRIO_DELIVERY,
            )
        return False

    def _release(self, waiters: List[int]) -> None:
        """Wake a completed collective's waiters, in arrival order."""
        for rank in waiters:
            self._wake(rank)

    def _tree_delay(self, size: int) -> float:
        depth = max(1, (size - 1).bit_length())
        return depth * self.latency.base
