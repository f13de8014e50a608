"""A multi-node cluster of simulated machines sharing one clock.

Each node owns a full kernel (its own POWER5 machine, runqueues and —
optionally — an HPCSched instance with its own detector, exactly like a
real deployment would run one HPCSched per node).  A single
:class:`~repro.simcore.engine.Simulator` drives all nodes, and one MPI
runtime spans them with an interconnect model that charges inter-node
messages a higher latency.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence

from repro.cluster.gang import GangPlacement
from repro.hpcsched import UniformHeuristic, attach_hpcsched
from repro.hpcsched.heuristics import Heuristic
from repro.kernel.core_sched import Kernel
from repro.mpi.messages import LatencyModel
from repro.mpi.process import MPIRank
from repro.mpi.runtime import MPIRuntime
from repro.power5.machine import Machine, MachineTopology
from repro.power5.perfmodel import CPU_BOUND, PerfProfile, TableDrivenModel
from repro.simcore.engine import Simulator


@dataclass(frozen=True)
class InterconnectModel:
    """Intra-node vs inter-node message delays."""

    intra: LatencyModel = LatencyModel(base=5e-6, bandwidth=1e9)
    inter: LatencyModel = LatencyModel(base=50e-6, bandwidth=2.5e8)

    def __post_init__(self) -> None:
        # LatencyModel validates its own fields at construction; guard
        # here against models smuggled in through other means (subclass,
        # object.__setattr__, raw floats), because a non-positive delay
        # delivers a message at or before its send time.
        for name in ("intra", "inter"):
            model = getattr(self, name)
            base = getattr(model, "base", None)
            bandwidth = getattr(model, "bandwidth", None)
            if base is None or not base > 0.0:
                raise ValueError(
                    f"InterconnectModel.{name}.base must be positive, "
                    f"got {base!r}"
                )
            if bandwidth is None or not bandwidth > 0.0:
                raise ValueError(
                    f"InterconnectModel.{name}.bandwidth must be "
                    f"positive, got {bandwidth!r}"
                )


class ClusterNode:
    """One node: kernel + optional HPCSched."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        heuristic_factory: Optional[Callable[[], Heuristic]],
        topology: MachineTopology,
    ) -> None:
        self.node_id = node_id
        machine = Machine(topology, TableDrivenModel())
        # No trace and no PMU attribution: recording every context
        # switch (and advancing per-core counters on every rate change)
        # across hundreds of CPUs costs real wall time, and a cluster
        # run reports only its rank exits.
        self.kernel = Kernel(machine=machine, sim=sim)
        self.kernel.pmu_enabled = False
        self.hpc_class = None
        if heuristic_factory is not None:
            self.hpc_class = attach_hpcsched(self.kernel, heuristic_factory())


class Cluster:
    """N simulated nodes + a spanning MPI runtime."""

    def __init__(
        self,
        n_nodes: int,
        heuristic_factory: Optional[Callable[[], Heuristic]] = UniformHeuristic,
        topology: Optional[MachineTopology] = None,
        interconnect: Optional[InterconnectModel] = None,
    ) -> None:
        self.sim = Simulator()
        self.topology = topology or MachineTopology()
        self.interconnect = interconnect or InterconnectModel()
        self.nodes: List[ClusterNode] = [
            ClusterNode(i, self.sim, heuristic_factory, self.topology)
            for i in range(n_nodes)
        ]
        self._rank_node: Dict[int, int] = {}
        self.runtime = MPIRuntime(
            self.nodes[0].kernel, route_delay=self._route_delay
        )
        self.use_hpc = heuristic_factory is not None
        #: Aggregate live-task count across all nodes, maintained by the
        #: kernels' on_live_change hooks so :meth:`run` can stop on an
        #: O(1) counter test instead of scanning every node per event.
        self._live_total = 0
        for node in self.nodes:
            node.kernel.on_live_change = self._note_live_change
        #: Simulated time each rank's task exited, recorded by the
        #: task ``on_exit`` hooks :meth:`launch` installs: the per-rank
        #: completion times behind ``cluster --json``'s ``rank_exit``.
        self.rank_exit: Dict[int, float] = {}

    def _note_live_change(self, delta: int) -> None:
        self._live_total += delta

    # ------------------------------------------------------------------
    @property
    def cpus_per_node(self) -> int:
        return self.topology.n_cpus

    def _route_delay(self, src: int, dst: int, size: int) -> float:
        same_node = self._rank_node.get(src) == self._rank_node.get(dst)
        model = self.interconnect.intra if same_node else self.interconnect.inter
        return model.delay(size)

    # ------------------------------------------------------------------
    def launch(
        self,
        programs: Sequence[Callable[[MPIRank], Generator]],
        placement: GangPlacement,
        profile: PerfProfile = CPU_BOUND,
        names: Optional[Sequence[str]] = None,
    ) -> Dict[int, object]:
        """Start one task per rank program according to ``placement``."""
        if len(placement.slots) < len(programs):
            raise ValueError("placement does not cover every rank")
        tasks = {}
        pending = []
        for rank, factory in enumerate(programs):
            slot = placement.slots[rank]
            node = self.nodes[slot.node]
            self._rank_node[rank] = slot.node
            mpi = MPIRank(self.runtime, rank)
            name = names[rank] if names else f"rank{rank}"
            task = node.kernel.create_task(
                name,
                perf_profile=profile,
                cpus_allowed=[slot.cpu],
            )
            task.program = self._wrap(factory, mpi) if self.use_hpc else factory(mpi)
            task.on_exit = self._exit_recorder(rank)
            self.runtime.bind(rank, task, kernel=node.kernel)
            tasks[rank] = task
            pending.append((node.kernel, task, slot.cpu))
        for kernel, task, cpu in pending:
            kernel.start_task(task, cpu=cpu)
        return tasks

    def _exit_recorder(self, rank: int):
        def record(_task) -> None:
            self.rank_exit[rank] = self.sim.now

        return record

    @staticmethod
    def _wrap(factory, mpi: MPIRank) -> Generator:
        def prog():
            yield mpi.setscheduler_hpc()
            yield from factory(mpi)

        return prog()

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until every node's application tasks exited.

        The cyclic garbage collector is off for the call and the
        caller's setting is restored on return (normal or not).  A
        cluster run allocates heavily — events, closures, generator
        frames — but leaves no cyclic garbage behind (``gc.collect()``
        after a collector-off run finds nothing), so every collection
        pass during it would only re-traverse the live setup graph
        (tasks, programs, per-CPU closures, runqueues).  Reference
        counting still frees everything the run drops.

        Like :meth:`Kernel.run`, it runs each node's end-of-run oracle
        audit under ``REPRO_VALIDATE``.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            end = self.sim.run(
                until=until,
                stop_when=lambda: self._live_total == 0,
            )
        finally:
            if was_enabled:
                gc.enable()
        for node in self.nodes:
            if node.kernel.oracles is not None:
                node.kernel.oracles.on_run_end(end)
        return end
