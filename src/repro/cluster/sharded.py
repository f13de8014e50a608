"""Sharded cluster simulation: conservative PDES across workers.

The single-process :class:`~repro.cluster.cluster.Cluster` funnels every
node through one :class:`~repro.simcore.engine.Simulator`.  But nodes
interact *only* through MPI messages, and the interconnect charges every
inter-node message at least ``interconnect.inter.base`` seconds — which
is exactly the **lookahead** a conservative parallel discrete-event
simulation needs: if every shard has advanced to time ``T``, no shard
can receive a new cross-shard event before ``T + lookahead``.

This module partitions the cluster's nodes into ``K`` shards, each
owning its own simulator + kernels, and advances them in lock-step time
windows:

* within a window each shard runs its event loop independently;
* cross-shard MPI traffic is intercepted at the ``MPIRuntime`` boundary
  (:class:`ShardMPIRuntime`) and *externalized* into an outbox instead
  of being scheduled locally;
* at the window barrier the coordinator routes outboxes to their
  destination shards, completes cross-shard collectives, and grants the
  next window; destinations inject the traffic as ordinary events.

**Adaptive windows.**  Fixed ``lookahead``-wide windows would need one
barrier per 40–50 µs of simulated time — hundreds of thousands of
round-trips for a multi-second run.  Each shard therefore reports *two*
sound lower bounds per window: ``next_action`` (the earliest instant it
can execute any event — the classic conservative bound) and
``next_send`` (the earliest instant it can *emit a cross-shard
directive*; compute phases are floored at ``now + remaining_work /
rate_ceiling`` and bookkeeping events — ticks, resched slots, balance
fires — are skipped).  The coordinator grants::

    bound     = min(next_action over shards, earliest fresh directive)
    safe_send = min(next_send  over shards, earliest fresh directive)
    H         = min(max(bound, safe_send) + L,  bound + scale * L)

``max(bound, safe_send)`` keeps the horizon at or above ``bound + L``
(the minimum-time shard is always stepped, so progress is guaranteed)
while the earliest-send bound proves no cross-shard directive can be
born before ``safe_send`` — hence none can *arrive* before
``safe_send + L >= H``, and injections never land in a shard's past
(:meth:`ShardMPIRuntime._guard_injection` enforces this at runtime).
``scale`` ramps multiplicatively: it doubles after every quiet window
(no cross-shard traffic observed) and halves on a miss, so sync rounds
per simulated second collapse during compute phases and snap back tight
around communication bursts.

**Wire protocol + delta reports.**  In the process transport each
grant/report crossing a pipe is a single compact binary frame
(:mod:`repro.cluster.wire`): struct-packed arrays keyed by
``(send_time, src, seq)``, fixed-size headers, one ``send_bytes`` /
``recv_bytes`` syscall per window per worker per direction.  Reports
are *deltas* — the persistent worker keeps all simulator state and
ships only the window's new cross-shard messages plus its two bounds;
full per-rank results are fetched once, at the end of the run.  The
coordinator accumulates ``sync_rounds`` (window barriers) and
``wire_bytes`` (total frame bytes both directions) so bench runs can
attribute scaling wins.

**Parked balance timers.**  The dominant event class at cluster scale
is the per-CPU load-balance timer (priority ``EVPRIO_BALANCE``), which
is a pure no-op re-arm while its kernel has nothing queued
(``Kernel._queued_total == 0``; the fire cannot pull or migrate).
Since PR 8 the parking itself lives in the kernel's fast-forward engine
(:mod:`repro.simcore.fastforward`, enabled by default): every kernel —
serial or sharded — parks provably-inert chains off the heap and
reinstates them at bit-exact chain points the instant an invalidation
edge (queued 0→1, migratable 0→1) could make a fire actionable.  This
module therefore only needs to *account* for the chains the kernels
manage themselves: parked chains are absent from the heap by
construction, and the window-horizon scan below skips armed balance
fires that cannot act yet.  The elision removes the ~90 % of cluster
events that are inert, and shrinks the heap every other event pays to
sift through.

**Determinism.**  Cross-shard messages are sorted by ``(send_time,
src_rank, seq)`` before injection; collective waiters are released in
``(arrival_time, rank)`` order; window horizons are pure functions of
reported state.  A sharded run is a deterministic function of its
inputs, and :mod:`repro.validate.sharded_parity` asserts per-rank
completion times and aggregate metrics match the single-process run
bit-for-bit.

Two transports share all of the above logic: *inline* (every shard in
the coordinating process — the right choice on few-core hosts, where
the win comes from parking inert timers) and *process* (one forked
worker per shard exchanging grants/reports over pipes — true
parallelism on multi-core hosts).  ``workers="auto"`` picks between
them from the host CPU count.

Limitations (documented, asserted where cheap): a communicator spanning
shards must have a reduction-tree delay of at least the lookahead (true
for MPI_COMM_WORLD by construction of ``L``); two *distinct* live
communicators over the identical rank set running the same collective
kind concurrently are indistinguishable to the coordinator; same-instant
cross-shard wake ordering is deterministic but only guaranteed to match
the serial schedule when the woken ranks live on distinct CPUs (true
for the one-rank-per-CPU placements this repository studies); a
reinstated balance fire that collides to the exact instant of another
kernel's never-parked fire runs after it rather than in original arm
order (harmless: balance rounds on distinct kernels touch disjoint
state and commute).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cluster.cluster import ClusterNode, InterconnectModel
from repro.kernel.core_sched import _WORK_EPSILON
from repro.cluster.gang import GangPlacement
from repro.hpcsched.heuristics import Heuristic
from repro.mpi.comm import Communicator
from repro.mpi.messages import Message
from repro.mpi.process import MPIRank
from repro.mpi.runtime import _EVPRIO_DELIVERY, MPIRuntime
from repro.power5.machine import MachineTopology
from repro.power5.perfmodel import CPU_BOUND, PerfProfile
from repro.simcore.engine import Simulator

_INF = math.inf

#: Event labels that can never *emit* a cross-shard directive by
#: themselves: scheduler bookkeeping (ticks, resched slots, balance
#: fires) only reorders tasks, and a compute-phase completion is
#: already lower-bounded by the earliest-send work floor (see
#: ``ShardEngine._bounds``).  Everything else — MPI deliveries, isend
#: acks, collective releases, sleep ends, unknown labels — counts as a
#: potential send instant.
_SEND_INERT_PREFIXES = ("tick/", "resched/", "balance/", "phase/")

#: Ceiling on the adaptive window scale (the earliest-send bound is the
#: real safety cap; this only bounds the integer).
_SCALE_MAX = 1 << 20


def _inert_label(label) -> bool:
    return label is not None and label.startswith(_SEND_INERT_PREFIXES)


class ShardedRunError(RuntimeError):
    """Raised when a sharded run cannot proceed (deadlock, or a
    configuration that would violate the conservative lookahead)."""


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """Partition of cluster nodes into contiguous shard blocks.

    Nodes are never split: all CPUs (and hence all ranks, and all SMT
    core pairs of a :class:`GangPlacement`) of one node live on one
    shard, so intra-node traffic never crosses a shard boundary and the
    inter-node base latency lower-bounds every cross-shard message.
    """

    n_nodes: int
    node_shard: Tuple[int, ...]  # node id -> shard id

    @property
    def n_shards(self) -> int:
        return max(self.node_shard) + 1 if self.node_shard else 0

    def nodes_of(self, shard: int) -> Tuple[int, ...]:
        """Global node ids owned by ``shard``, ascending."""
        return tuple(
            n for n, s in enumerate(self.node_shard) if s == shard
        )


def plan_shards(n_nodes: int, n_shards: int) -> ShardPlan:
    """Split ``n_nodes`` into ``n_shards`` contiguous, balanced blocks."""
    if n_shards <= 0:
        raise ValueError(f"need at least one shard, got {n_shards}")
    if n_nodes <= 0:
        raise ValueError(f"need at least one node, got {n_nodes}")
    n_shards = min(n_shards, n_nodes)
    assignment = []
    for node in range(n_nodes):
        assignment.append(node * n_shards // n_nodes)
    return ShardPlan(n_nodes=n_nodes, node_shard=tuple(assignment))


# ----------------------------------------------------------------------
# Wire records — shared with the binary codec (re-exported here under
# their historical names; see repro.cluster.wire for the frame layout)
# ----------------------------------------------------------------------
from repro.cluster.wire import (  # noqa: E402  (re-export)
    ShardResult,
    WindowGrant,
    WindowReport,
    WireArrival,
    WireCodec,
    WireSend,
    FRAME_ERROR,
    FRAME_STOP,
)


# ----------------------------------------------------------------------
# The MPI runtime with message externalization hooks
# ----------------------------------------------------------------------
class ShardMPIRuntime(MPIRuntime):
    """An :class:`MPIRuntime` that owns only its shard's ranks.

    Local traffic takes the inherited (serial) code paths unchanged.
    Cross-shard traffic is externalized: ``post_send`` to a remote rank
    appends a :class:`WireSend` to the outbox (scheduling only the local
    isend-completion event), and ``collective_arrive`` on a communicator
    spanning shards appends a :class:`WireArrival` and parks the caller
    exactly as the serial runtime would.
    """

    def __init__(
        self,
        kernel,
        world_ranks: Sequence[int],
        local_ranks: Sequence[int],
        route_delay,
    ) -> None:
        super().__init__(kernel, route_delay=route_delay)
        self._local_ranks = frozenset(local_ranks)
        # The world spans every shard, so it is fixed here; the local
        # ``bind`` below never invalidates it.
        self._world = Communicator(sorted(world_ranks), name="world")
        self.outbox_sends: List[WireSend] = []
        self.outbox_arrivals: List[WireArrival] = []
        # Communicator membership never changes after construction, so
        # the is-fully-local test is cached per communicator object.
        # Keyed by ``id``; the strong-ref list pins each keyed object so
        # the id cannot be recycled.
        self._comm_local: Dict[int, bool] = {}
        self._comm_refs: List[object] = []

    # -- registration ---------------------------------------------------
    def bind(self, rank, task, kernel=None) -> None:
        """Bind a *local* rank."""
        if rank in self.tasks:
            raise ValueError(f"rank {rank} already bound")
        if rank not in self._local_ranks:
            raise ValueError(f"rank {rank} is not local to this shard")
        from repro.mpi.runtime import _RankState

        self.tasks[rank] = task
        self._kernels[rank] = kernel or self.kernel
        self._states[rank] = _RankState()

    # -- point-to-point -------------------------------------------------
    def post_send(
        self, src, dst, tag, size, payload=None, isend_handle=None
    ) -> Message:
        if dst in self._local_ranks:
            return super().post_send(
                src, dst, tag, size, payload=payload,
                isend_handle=isend_handle,
            )
        if dst not in self.world:
            raise ValueError(f"send to unknown rank {dst}")
        # Remote: same Message construction (identical delay/arrival
        # float expressions as the serial runtime), but delivery is the
        # destination shard's business — externalize the wire form.
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
        self.outbox_sends.append(
            WireSend(
                src=src,
                dst=dst,
                tag=tag,
                size=size,
                send_time=msg.send_time,
                arrival_time=msg.arrival_time,
                seq=msg.seq,
                payload=payload,
            )
        )
        if isend_handle is not None:
            # The serial runtime completes the isend handle at the
            # delivery event; replicate the completion locally at the
            # same (time, priority).
            self.kernel.sim.at(
                msg.arrival_time,
                lambda: self._ack_remote(msg),
                priority=_EVPRIO_DELIVERY,
                label="mpi-ack",
            )
        return msg

    def _ack_remote(self, msg: Message) -> None:
        msg.isend_handle.finish(msg)
        self._check_waitall(msg.src)

    # -- collectives ----------------------------------------------------
    def collective_arrive(self, comm, kind, rank) -> bool:
        local = self._comm_local.get(id(comm))
        if local is None:
            local = set(comm.ranks) <= self._local_ranks
            self._comm_local[id(comm)] = local
            self._comm_refs.append(comm)
        if local:
            return super().collective_arrive(comm, kind, rank)
        if rank not in comm:
            raise ValueError(f"rank {rank} not in {comm!r}")
        self.outbox_arrivals.append(
            WireArrival(
                ckey=comm.ranks,
                kind=kind,
                rank=rank,
                time=self.kernel.now,
                comm_size=comm.size,
            )
        )
        return False  # park, like every serial collective arrival

    # -- injection (destination side) -----------------------------------
    def _guard_injection(self, time: float, what: str) -> None:
        """A directive landing in the shard's past would silently warp
        the schedule; the conservative horizon protocol guarantees it
        cannot happen, so a violation is a windowing bug — fail loudly
        instead of drifting out of parity."""
        if time < self.kernel.sim.now:
            raise ShardedRunError(
                f"conservative-window violation: {what} at t={time!r} "
                f"injected into a shard already at t={self.kernel.sim.now!r}"
            )

    def inject_delivery(self, wire: WireSend):
        """Schedule a cross-shard message's delivery locally; returns
        the event."""
        self._guard_injection(wire.arrival_time, "message delivery")
        msg = Message(
            src=wire.src,
            dst=wire.dst,
            tag=wire.tag,
            size=wire.size,
            send_time=wire.send_time,
            arrival_time=wire.arrival_time,
            payload=wire.payload,
            seq=wire.seq,
        )
        return self.kernel.sim.at(
            wire.arrival_time,
            lambda: self._deliver(msg),
            priority=_EVPRIO_DELIVERY,
            label="mpi-deliver",
        )

    def inject_wake(self, time: float, rank: int, kind: str):
        """Schedule a coordinator-computed collective release locally;
        returns the event."""
        self._guard_injection(time, f"{kind} release")
        return self.kernel.sim.at(
            time,
            lambda: self._wake(rank),
            priority=_EVPRIO_DELIVERY,
            label="mpi-release",
        )


# ----------------------------------------------------------------------
# One shard: nodes + kernels + windowed execution
# ----------------------------------------------------------------------
class ShardEngine:
    """Builds and drives one shard of the cluster.

    Used directly by the inline transport and inside the forked worker
    by the process transport — the windowed execution logic is identical
    either way.
    """

    def __init__(
        self,
        shard_id: int,
        node_ids: Sequence[int],
        programs: Sequence[Callable[[MPIRank], Generator]],
        placement: GangPlacement,
        heuristic_factory: Optional[Callable[[], Heuristic]],
        topology: Optional[MachineTopology] = None,
        interconnect: Optional[InterconnectModel] = None,
        profile: PerfProfile = CPU_BOUND,
        windowed: bool = True,
    ) -> None:
        self.shard_id = shard_id
        self.sim = Simulator()
        self.topology = topology or MachineTopology()
        self.interconnect = interconnect or InterconnectModel()
        self.nodes: Dict[int, ClusterNode] = {
            nid: ClusterNode(nid, self.sim, heuristic_factory, self.topology)
            for nid in node_ids
        }
        self._node_set = frozenset(node_ids)
        self._rank_node: Dict[int, int] = {
            rank: slot.node for rank, slot in placement.slots.items()
        }
        world_ranks = range(len(programs))
        local_ranks = [
            r for r in world_ranks if self._rank_node[r] in self._node_set
        ]
        first = next(iter(self.nodes.values()))
        self.runtime = ShardMPIRuntime(
            first.kernel,
            world_ranks=world_ranks,
            local_ranks=local_ranks,
            route_delay=self._route_delay,
        )
        self.use_hpc = heuristic_factory is not None
        self.live = 0
        self.kernels = [n.kernel for n in self.nodes.values()]
        for kernel in self.kernels:
            kernel.on_live_change = self._note_live_change
        self.rank_exit: Dict[int, float] = {}
        self._fresh_exits: Dict[int, float] = {}
        self._injected: List[object] = []  # unfired directive events
        # Balance chains are parked by each kernel's own fast-forward
        # engine (repro.simcore.fastforward); this engine only needs to
        # recognize the *armed* ones in the window-horizon scan.  Labels
        # are uniquified per node before launch — the stock per-kernel
        # labels collide across the kernels sharing this shard's
        # simulator — so `_next_action` can map a queued event back to
        # its kernel.  A kernel built with fastforward=False keeps its
        # chains armed, and the scan alone keeps windows sound.
        self._label_kernel: Dict[str, object] = {}
        self.windowed = windowed
        if windowed:
            for nid, node in self.nodes.items():
                kernel = node.kernel
                kernel._lbl_balance = {
                    c: f"balance/{nid}/{c}"
                    for c in kernel.machine.cpu_ids
                }
                for lbl in kernel._lbl_balance.values():
                    self._label_kernel[lbl] = kernel
        self._launch(programs, placement, profile)
        # Hard ceiling on any rank task's execution rate, for the
        # earliest-send work floor (`_bounds`).  Both performance models
        # clamp a thread's speed to the profile's single-thread mode
        # (TableDrivenModel returns st_speed or a table entry;
        # DecodeShareModel takes min(speed, st_speed)), so the fastest a
        # profile can ever run is max(st_speedup, table entries).  The
        # 1e-9 relative slack swamps float rounding in the floor
        # division without costing measurable width (lookahead is ~µs,
        # the slack ~ns of a typical phase).
        ceiling = 1.0
        for task in self.runtime.tasks.values():
            prof = task.perf_profile
            ceiling = max(
                ceiling,
                prof.st_speedup,
                max(prof.dprio_speed.values(), default=1.0),
            )
        self._rate_ceiling = ceiling * (1.0 + 1e-9)

    # -- construction helpers -------------------------------------------
    def _note_live_change(self, delta: int) -> None:
        self.live += delta
        if self.live == 0 and delta < 0:
            # Stop the engine after the current event, replacing a
            # per-event ``stop_when`` predicate.  Same stop instant:
            # ``stop_when`` was evaluated after each event + deferreds,
            # and ``stop()`` is honoured at exactly that point.
            self.sim.stop()

    def _route_delay(self, src: int, dst: int, size: int) -> float:
        same_node = self._rank_node.get(src) == self._rank_node.get(dst)
        model = self.interconnect.intra if same_node else self.interconnect.inter
        return model.delay(size)

    def _launch(self, programs, placement: GangPlacement, profile) -> None:
        """Create and start the shard-local ranks, in the same relative
        (ascending-rank) order the serial :meth:`Cluster.launch` uses."""
        pending = []
        for rank, factory in enumerate(programs):
            slot = placement.slots[rank]
            if slot.node not in self._node_set:
                continue
            node = self.nodes[slot.node]
            mpi = MPIRank(self.runtime, rank)
            task = node.kernel.create_task(
                f"rank{rank}",
                perf_profile=profile,
                cpus_allowed=[slot.cpu],
            )
            task.program = (
                self._wrap(factory, mpi) if self.use_hpc else factory(mpi)
            )
            task.on_exit = self._exit_recorder(rank)
            self.runtime.bind(rank, task, kernel=node.kernel)
            pending.append((node.kernel, task, slot.cpu))
        for kernel, task, cpu in pending:
            kernel.start_task(task, cpu=cpu)

    @staticmethod
    def _wrap(factory, mpi: MPIRank) -> Generator:
        def prog():
            yield mpi.setscheduler_hpc()
            yield from factory(mpi)

        return prog()

    def _exit_recorder(self, rank: int):
        def record(_task) -> None:
            self.rank_exit[rank] = self.sim.now
            self._fresh_exits[rank] = self.sim.now

        return record

    # -- window protocol ------------------------------------------------
    def initial_report(self) -> WindowReport:
        """The pre-first-window report: nothing executed yet, so the
        coordinator sees launch-time state only."""
        return self._report()

    def step(self, grant: WindowGrant) -> WindowReport:
        """Inject the grant's directives, run one window, report."""
        rt = self.runtime
        for wire in grant.deliveries:  # pre-sorted by the coordinator
            self._injected.append(rt.inject_delivery(wire))
        for time, rank, kind in grant.wakes:
            self._injected.append(rt.inject_wake(time, rank, kind))
        if self.live > 0:
            # No stop_when: _note_live_change calls sim.stop() when the
            # last local rank exits, at the same post-event point the
            # predicate used to be tested.
            self.sim.run(until=grant.horizon, until_exclusive=True)
        elif self._unfired_directives():
            # Locally drained, but cross-shard deliveries the serial run
            # would still execute (e.g. a message to a rank that already
            # exited) are pending — fire them for counter parity.
            self.sim.run(until=grant.horizon, until_exclusive=True)
        return self._report()

    def run_direct(self) -> None:
        """The 1-shard special case: no windows — the exact serial
        drive, so the run is byte-identical to :meth:`Cluster.run`
        (same event stream, same counters: the kernels' fast-forward
        engines make identical park/elide decisions in both, and the
        stop arrives via ``sim.stop()`` from ``_note_live_change`` at
        the same post-event instant the serial predicate fires)."""
        if self.live > 0:
            self.sim.run()

    def result(self) -> ShardResult:
        """Final accounting, collected after the global stop."""
        return ShardResult(
            shard_id=self.shard_id,
            rank_exit=dict(self.rank_exit),
            events_processed=self.sim.events_processed,
            messages_sent=self.runtime.messages_sent,
            messages_delivered=self.runtime.messages_delivered,
        )

    # -- action bound and balance-timer parking -------------------------
    def _unfired_directives(self) -> List[object]:
        self._injected = [
            ev
            for ev in self._injected
            if ev._queue is not None and not ev.cancelled
        ]
        return self._injected

    def _bounds(self) -> Tuple[float, float]:
        """``(next_action, next_send)`` — two sound lower bounds.

        ``next_action`` is the classic conservative bound: the earliest
        pending heap event (parked balance chains are absent from the
        heap by construction, and an armed balance fire on a
        currently-idle kernel is skipped — it cannot act unless some
        earlier-or-equal counted event enqueues work first).  Every
        observable action happens at an event, so nothing can occur
        below it — but it counts *inert* local timers (ticks, resched
        slots), which pins windows to the ~10 ms tick period.

        ``next_send`` bounds only what other shards can observe: the
        earliest instant a cross-shard message or collective arrival can
        be emitted.  Sends happen when a rank's *program* advances —
        at a compute-phase completion or at a wakeup — never inside
        tick/resched/balance bookkeeping.  For every runnable rank task
        with phase work left, its program cannot advance before
        ``now + remaining / rate_ceiling`` no matter how events reorder
        or rates change (rates are capped by the profile's single-thread
        mode, see ``_rate_ceiling``); wakeups (message deliveries, isend
        acks, collective releases, sleep ends) are real heap events and
        are counted directly.  A runnable rank task *without* phase work
        (at launch, or mid instant-advance) can act at any scheduling
        event, so its presence collapses ``next_send`` back to the
        all-events bound — sound, just no wider than ``next_action``.
        """
        if self.live <= 0:
            pending = self._unfired_directives()
            t = min((ev.time for ev in pending), default=_INF)
            return t, t
        now = self.sim.now
        ceiling = self._rate_ceiling
        floor_all = False  # a rank may act at *any* scheduling event
        send = _INF
        for task in self.runtime.tasks.values():
            if not task.runnable:
                continue  # sleeping ranks wake only at counted events
            rem = task.phase_remaining
            started = task.phase_started_at
            if started is not None and task.phase_rate > 0.0:
                # Mirror Task.bank_progress's float expressions exactly:
                # the true remaining work at `now` under the current
                # (constant-since-rebase) rate.
                rem = max(0.0, rem - max(0.0, (now - started) * task.phase_rate))
            if rem > _WORK_EPSILON:
                floor = now + rem / ceiling
                if floor < send:
                    send = floor
            else:
                floor_all = True
        label_kernel = self._label_kernel
        action = _INF
        for t, ev in self.sim.queue.iter_entries():
            if t >= action and (floor_all or t >= send):
                continue
            kernel = label_kernel.get(ev.label)
            if kernel is not None and kernel._queued_total == 0:
                continue  # armed balance fire on an idle kernel: inert
            if t < action:
                action = t
            if not floor_all and t < send and not _inert_label(ev.label):
                send = t
        if floor_all or send < action:
            # Every send is an action, so next_action is itself a sound
            # send bound; never report the weaker of the two.
            send = action
        return action, send

    def _report(self) -> WindowReport:
        rt = self.runtime
        sends, rt.outbox_sends = rt.outbox_sends, []
        arrivals, rt.outbox_arrivals = rt.outbox_arrivals, []
        exits, self._fresh_exits = self._fresh_exits, {}
        next_action, next_send = self._bounds()
        return WindowReport(
            shard_id=self.shard_id,
            now=self.sim.now,
            next_action=next_action,
            live=self.live,
            sends=sends,
            arrivals=arrivals,
            exits=exits,
            next_send=next_send,
        )


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class _CollectivePending:
    __slots__ = ("arrivals",)

    def __init__(self) -> None:
        self.arrivals: List[WireArrival] = []


class _Coordinator:
    """Routes outboxes, completes cross-shard collectives, computes
    window horizons, and decides the global stop."""

    def __init__(
        self,
        n_shards: int,
        lookahead: float,
        rank_shard: Dict[int, int],
        tree_base: float,
    ) -> None:
        self.n_shards = n_shards
        self.lookahead = lookahead
        self.rank_shard = rank_shard
        self.tree_base = tree_base
        self._pending: Dict[Tuple[Tuple[int, ...], str], _CollectivePending] = {}
        self.all_exits: Dict[int, float] = {}
        self.windows = 0

    def _tree_delay(self, size: int) -> float:
        # Must match MPIRuntime._tree_delay bit-for-bit.
        depth = max(1, (size - 1).bit_length())
        return depth * self.tree_base

    def route(
        self, reports: Sequence[WindowReport]
    ) -> Tuple[List[WindowGrant], float]:
        """Consume the reports' outboxes; returns per-shard grants (with
        horizon still unset) and the earliest fresh directive time."""
        deliveries: List[List[WireSend]] = [[] for _ in range(self.n_shards)]
        wakes: List[List[Tuple[float, int, str]]] = [
            [] for _ in range(self.n_shards)
        ]
        directive_min = _INF
        for report in reports:
            self.all_exits.update(report.exits)
            for wire in report.sends:
                deliveries[self.rank_shard[wire.dst]].append(wire)
                if wire.arrival_time < directive_min:
                    directive_min = wire.arrival_time
            for arrival in report.arrivals:
                key = (arrival.ckey, arrival.kind)
                pend = self._pending.setdefault(key, _CollectivePending())
                pend.arrivals.append(arrival)
                if len(pend.arrivals) == arrival.comm_size:
                    del self._pending[key]
                    release_min = self._complete_collective(
                        arrival, pend.arrivals, wakes
                    )
                    if release_min < directive_min:
                        directive_min = release_min
        grants = []
        for shard in range(self.n_shards):
            batch = deliveries[shard]
            if len(batch) > 1:
                batch.sort(key=lambda w: (w.send_time, w.src, w.seq))
            grants.append(
                WindowGrant(
                    horizon=_INF, deliveries=batch, wakes=wakes[shard]
                )
            )
        return grants, directive_min

    def _complete_collective(
        self,
        last: WireArrival,
        arrivals: List[WireArrival],
        wakes: List[List[Tuple[float, int, str]]],
    ) -> float:
        delay = self._tree_delay(last.comm_size)
        if delay < self.lookahead:
            raise ShardedRunError(
                f"collective over {last.comm_size} ranks spanning shards "
                f"has tree delay {delay:.2e}s < lookahead "
                f"{self.lookahead:.2e}s; such sub-communicators are not "
                "supported by the conservative window protocol — reduce "
                "the shard count or keep the communicator within a shard"
            )
        # Serial semantics: everyone is released tree-delay after the
        # last arrival, in arrival order; same-instant arrival ties are
        # broken by rank (equivalent for the one-rank-per-CPU placements
        # this repository studies — see module docstring).
        ordered = sorted(arrivals, key=lambda a: (a.time, a.rank))
        t_last = ordered[-1].time
        release = t_last + delay
        for arrival in ordered:
            wakes[self.rank_shard[arrival.rank]].append(
                (release, arrival.rank, arrival.kind)
            )
        return release

    def incomplete_collectives(self) -> int:
        return len(self._pending)


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class _InlineWorkers:
    """All shards in this process, stepped round-robin.

    A ``None`` grant skips that shard this window (its previous report
    is still exact, so the caller keeps it): the shard has nothing to
    inject and nothing to execute below the horizon.
    """

    name = "inline"

    def __init__(self, builders: Sequence[Callable[[], ShardEngine]]) -> None:
        self.engines = [build() for build in builders]

    def initial(self) -> List[WindowReport]:
        return [e.initial_report() for e in self.engines]

    def step(
        self, grants: Sequence[Optional[WindowGrant]]
    ) -> List[Optional[WindowReport]]:
        return [
            e.step(g) if g is not None else None
            for e, g in zip(self.engines, grants)
        ]

    def finish(self) -> List[ShardResult]:
        return [e.result() for e in self.engines]

    def close(self) -> None:
        pass


def _process_worker_main(builder, conn, world) -> None:
    """Forked worker: build the shard, then serve grant→report rounds
    until the stop frame.  Every exchange is one binary frame over
    ``send_bytes``/``recv_bytes`` — a single write per window."""
    codec = WireCodec(world)
    try:
        engine = builder()
        conn.send_bytes(codec.encode_report(engine.initial_report()))
        while True:
            ftype, value = codec.decode(conn.recv_bytes())
            if ftype == FRAME_STOP:
                conn.send_bytes(codec.encode_result(engine.result()))
                return
            conn.send_bytes(codec.encode_report(engine.step(value)))
    except (EOFError, BrokenPipeError):  # parent is gone; just exit
        raise
    except BaseException as exc:  # surface the traceback to the parent
        import traceback

        try:
            conn.send_bytes(
                codec.encode_error(f"{exc}\n{traceback.format_exc()}")
            )
        except (OSError, ValueError):  # pragma: no cover - pipe closed
            pass
        raise
    finally:
        conn.close()


class _ProcessWorkers:
    """One forked worker per shard; grants/reports travel over pipes as
    single binary frames (:mod:`repro.cluster.wire`).

    Fork (not spawn) start method: worker arguments — including task
    program closures — are inherited, never pickled.  Only wire frames
    cross the pipes, and :attr:`wire_bytes` counts every byte in both
    directions.

    A worker that dies mid-window (killed, OOM, crash) surfaces as
    :class:`ShardedRunError` carrying either the worker's own traceback
    (sent as an error frame before re-raising) or its exit code (pipe
    EOF without a frame); either way :meth:`close` reliably terminates
    and joins every surviving worker, so no orphans outlive the run.
    """

    name = "process"

    def __init__(
        self,
        builders: Sequence[Callable[[], ShardEngine]],
        world: Sequence[int],
    ) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        self.codec = WireCodec(world)
        self.wire_bytes = 0
        self.conns = []
        self.procs = []
        for builder in builders:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_process_worker_main,
                args=(builder, child, tuple(world)),
                daemon=True,
            )
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    def _send(self, conn, frame: bytes) -> None:
        self.wire_bytes += len(frame)
        conn.send_bytes(frame)

    def _recv(self, index: int):
        try:
            frame = self.conns[index].recv_bytes()
        except (EOFError, OSError):
            self._fail(index, None)
        self.wire_bytes += len(frame)
        ftype, value = self.codec.decode(frame)
        if ftype == FRAME_ERROR:
            self._fail(index, value)
        return value

    def _fail(self, index: int, detail: Optional[str]) -> None:
        """A worker died or reported an exception: reap everything,
        then raise with the best diagnostics available."""
        proc = self.procs[index]
        self.close()
        if detail is None:
            code = proc.exitcode
            detail = (
                f"worker process exited with code {code} without a "
                "report (killed or crashed mid-window)"
            )
        raise ShardedRunError(f"shard {index} worker failed:\n{detail}")

    def initial(self) -> List[WindowReport]:
        return [self._recv(i) for i in range(len(self.conns))]

    def step(
        self, grants: Sequence[Optional[WindowGrant]]
    ) -> List[Optional[WindowReport]]:
        # All grants go out before any report is awaited, so every
        # granted worker runs its window concurrently; a skipped shard
        # (None grant) costs no pipe round-trip at all.
        for conn, grant in zip(self.conns, grants):
            if grant is not None:
                self._send(conn, self.codec.encode_grant(grant))
        return [
            self._recv(i) if grant is not None else None
            for i, grant in enumerate(grants)
        ]

    def finish(self) -> List[ShardResult]:
        stop = self.codec.encode_stop()
        for conn in self.conns:
            self._send(conn, stop)
        results = [self._recv(i) for i in range(len(self.conns))]
        self.close()
        return results

    def close(self) -> None:
        """Idempotent teardown: close pipes (workers blocked in
        ``recv_bytes`` see EOF and exit), then join, escalating to
        terminate/kill so a wedged worker can never be orphaned."""
        for conn in self.conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in self.procs:
            proc.join(timeout=1)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                proc.kill()
                proc.join()


def _resolve_workers(workers: str, n_shards: int) -> str:
    """auto → process only when the host has CPUs for it.

    Two inline cutoffs: a <2-CPU host gains nothing from forking at
    all, and a host with fewer than ``n_shards / 2`` usable CPUs would
    time-slice so many workers per core that the per-window barrier
    (every round waits for the *slowest* worker) eats the win — the
    fork/pipe overhead then just makes the inline path slower.  At
    ``cpus >= n_shards / 2`` each barrier round overlaps at least two
    shards per core, which measures out ahead of inline.
    """
    if workers not in ("auto", "inline", "process"):
        raise ValueError(
            f"workers must be auto, inline or process, got {workers!r}"
        )
    if workers != "auto":
        return workers
    if n_shards < 2:
        return "inline"
    cpus = _usable_cpus()
    if cpus < 2 or 2 * cpus < n_shards or not hasattr(os, "fork"):
        return "inline"
    return "process"


def _usable_cpus() -> int:
    """CPUs this process may actually run on.  ``os.cpu_count()`` reports
    the whole machine, which overcounts inside cpuset-restricted
    containers (a 1-CPU cgroup on a 64-CPU host would fork 64-way and
    thrash); prefer the scheduling affinity mask where available."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Top-level runner
# ----------------------------------------------------------------------
@dataclass
class ShardedRunResult:
    """Outcome of a sharded cluster run (parity-comparable fields)."""

    exec_time: float
    rank_exit: Dict[int, float]
    events: int
    messages_sent: int
    messages_delivered: int
    n_shards: int
    workers: str
    windows: int
    lookahead: float
    #: Coordinator barrier rounds (== ``windows``; the bench-facing
    #: name — the quantity the adaptive lookahead exists to minimize).
    sync_rounds: int = 0
    #: Total frame bytes exchanged over the process transport, both
    #: directions (0 for inline: nothing is encoded in-process).
    wire_bytes: int = 0


def run_sharded(
    n_nodes: int,
    programs: Sequence[Callable[[MPIRank], Generator]],
    placement: GangPlacement,
    heuristic_factory: Optional[Callable[[], Heuristic]] = None,
    shards: int = 2,
    workers: str = "auto",
    topology: Optional[MachineTopology] = None,
    interconnect: Optional[InterconnectModel] = None,
    profile: PerfProfile = CPU_BOUND,
) -> ShardedRunResult:
    """Run a cluster application sharded over ``shards`` simulators.

    Semantically equivalent to building a :class:`Cluster`, calling
    ``launch(programs, placement)`` and ``run()`` — the parity oracle
    holds the two to bit-identical per-rank completion times.
    """
    if len(placement.slots) < len(programs):
        raise ValueError("placement does not cover every rank")
    interconnect = interconnect or InterconnectModel()
    plan = plan_shards(n_nodes, shards)
    n_shards = plan.n_shards
    rank_shard = {
        rank: plan.node_shard[slot.node]
        for rank, slot in placement.slots.items()
        if rank < len(programs)
    }
    # Conservative lookahead: no cross-shard p2p message can arrive
    # sooner than the inter-node base latency, and no cross-shard
    # collective can release sooner than the world reduction-tree delay.
    from repro.mpi.messages import LatencyModel

    runtime_base = LatencyModel().base
    depth = max(1, (len(programs) - 1).bit_length())
    lookahead = min(interconnect.inter.base, depth * runtime_base)

    def make_builder(shard_id: int) -> Callable[[], ShardEngine]:
        node_ids = plan.nodes_of(shard_id)

        def build() -> ShardEngine:
            return ShardEngine(
                shard_id,
                node_ids,
                programs,
                placement,
                heuristic_factory,
                topology=topology,
                interconnect=interconnect,
                profile=profile,
                windowed=n_shards > 1,
            )

        return build

    builders = [make_builder(s) for s in range(n_shards)]

    mode = _resolve_workers(workers, n_shards)
    if n_shards == 1:
        # Byte-identical special case: one shard is the serial run.
        engine = builders[0]()
        engine.run_direct()
        result = engine.result()
        return ShardedRunResult(
            exec_time=engine.sim.now,
            rank_exit=result.rank_exit,
            events=result.events_processed,
            messages_sent=result.messages_sent,
            messages_delivered=result.messages_delivered,
            n_shards=1,
            workers="inline",
            windows=0,
            lookahead=lookahead,
        )

    pool = (
        _ProcessWorkers(builders, range(len(programs)))
        if mode == "process"
        else _InlineWorkers(builders)
    )
    coord = _Coordinator(
        n_shards=n_shards,
        lookahead=lookahead,
        rank_shard=rank_shard,
        tree_base=runtime_base,
    )
    # Adaptive window scale W: the horizon is allowed to run up to
    # W * lookahead past the classic conservative bound, capped by the
    # earliest-send bound which makes any width safe.  W doubles on a
    # quiet round (no cross-shard traffic observed) and halves on a
    # miss, so sustained compute stretches converge to earliest-send
    # width within log2 rounds while communication-dense stretches
    # fall back toward the classic one-lookahead window.
    scale = 1
    try:
        reports = pool.initial()
        fresh = reports
        while True:
            # Route only the *fresh* reports: a skipped shard's report
            # was already consumed (its outbox routed) in the window
            # that produced it.
            traffic = any(r.sends or r.arrivals for r in fresh)
            grants, directive_min = coord.route(fresh)
            total_live = sum(r.live for r in reports)
            action_min = min(r.next_action for r in reports)
            send_min = min(r.next_send for r in reports)
            bound = min(action_min, directive_min)
            if total_live == 0:
                t_stop = max(coord.all_exits.values(), default=0.0)
                if bound >= t_stop:
                    break
                # Deliveries the serial run would still execute before
                # its stop instant: drain them.
                horizon = t_stop
            else:
                if bound == _INF:
                    raise ShardedRunError(
                        f"sharded run deadlocked: {total_live} tasks "
                        f"alive, no shard can act, "
                        f"{coord.incomplete_collectives()} collective(s) "
                        "incomplete"
                    )
                scale = max(1, scale // 2) if traffic else min(scale * 2, _SCALE_MAX)
                # No shard can *send* below safe_send (see _bounds; a
                # directive granted this round can trigger an immediate
                # reply, hence the directive_min term), so every
                # message generated inside the window arrives at or
                # after safe_send + lookahead >= horizon — injectable
                # next barrier, never in a shard's past.  bound is
                # itself a send lower bound (sends happen at events),
                # so take the wider of the two; and since
                # horizon >= bound + lookahead always, the shard
                # holding the minimum event is always stepped:
                # guaranteed progress.
                safe_send = min(send_min, directive_min)
                horizon = min(
                    max(bound, safe_send) + coord.lookahead,
                    bound + scale * coord.lookahead,
                )
            # Step only the shards this window can touch: something to
            # inject, or an event below the horizon.  A skipped shard's
            # event stream is unaffected — windows bound how far ahead
            # a shard may run, never what it executes — so its previous
            # report stays exact (and in process mode the skip saves
            # the pipe round-trip).
            step_grants: List[Optional[WindowGrant]] = []
            for grant, report in zip(grants, reports):
                if (
                    grant.deliveries
                    or grant.wakes
                    or report.next_action < horizon
                ):
                    grant.horizon = horizon
                    step_grants.append(grant)
                else:
                    step_grants.append(None)
            coord.windows += 1
            stepped = pool.step(step_grants)
            fresh = [r for r in stepped if r is not None]
            reports = [
                new if new is not None else old
                for new, old in zip(stepped, reports)
            ]
        results = pool.finish()
    except BaseException:
        pool.close()
        raise

    rank_exit: Dict[int, float] = {}
    for res in results:
        rank_exit.update(res.rank_exit)
    return ShardedRunResult(
        exec_time=max(rank_exit.values(), default=0.0),
        rank_exit=rank_exit,
        events=sum(r.events_processed for r in results),
        messages_sent=sum(r.messages_sent for r in results),
        messages_delivered=sum(r.messages_delivered for r in results),
        n_shards=n_shards,
        workers=mode,
        windows=coord.windows,
        lookahead=lookahead,
        sync_rounds=coord.windows,
        wire_bytes=getattr(pool, "wire_bytes", 0),
    )
