"""Cluster gang-scheduling experiment (paper §VI future work).

A MetBench-style application with an ascending load ladder across 8
ranks on 2 nodes.  Naive block placement puts all light ranks on node 0
and all heavy ranks on node 1 — pairing heavy-with-heavy on each SMT
core, which the local HPCSched *cannot* fix (both siblings want the
high priority) — while gang placement pairs heavy-with-light per core
(inside the ±2 window's ~7x absorbable speed ratio) and equalizes node
totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.gang import GangPlacement, block_placement, gang_placement
from repro.hpcsched import UniformHeuristic
from repro.mpi.process import MPIRank

#: Ascending ladder: light ranks first (the worst case for block
#: placement).  The heavy/light ratio ~7 matches what the ±2 priority
#: window can absorb.
DEFAULT_LOADS = [0.45, 0.47, 0.49, 0.51, 3.15, 3.29, 3.43, 3.57]
DEFAULT_ITERATIONS = 10


def ladder_loads(n_ranks: int) -> list:
    """The 8-rank paper ladder generalized to ``n_ranks``: cycle the
    base loads and sort ascending, so the first half stays light and
    the per-node heavy/light mix matches the paper's at any scale."""
    if n_ranks <= 0:
        raise ValueError(f"need at least one rank, got {n_ranks}")
    base = DEFAULT_LOADS
    return sorted(base[i % len(base)] for i in range(n_ranks))


@dataclass
class ClusterRunResult:
    placement: GangPlacement
    exec_time: float
    node_loads: Dict[int, float]
    #: Simulation events the shared engine delivered for this run.
    events: int = 0
    #: Simulated time each rank's task exited.
    rank_exit: Dict[int, float] = field(default_factory=dict)
    messages_sent: int = 0
    messages_delivered: int = 0


def _worker(load: float, iterations: int):
    def factory(mpi: MPIRank) -> Generator:
        def prog():
            for _ in range(iterations):
                yield mpi.compute(load)
                yield mpi.barrier()

        return prog()

    return factory


def _placement_for(strategy, loads, n_nodes, cpn) -> GangPlacement:
    if strategy == "block":
        return block_placement(len(loads), n_nodes, cpn)
    if strategy == "gang":
        return gang_placement(loads, n_nodes, cpn)
    raise ValueError(f"unknown placement strategy {strategy!r}")


def run_cluster(
    strategy: str,
    loads: Optional[Sequence[float]] = None,
    iterations: int = DEFAULT_ITERATIONS,
    n_nodes: int = 2,
    use_hpc: bool = True,
) -> ClusterRunResult:
    """Run the ladder workload under one placement strategy."""
    if iterations < 1:
        raise ValueError(f"need at least one iteration, got {iterations}")
    loads = list(loads if loads is not None else DEFAULT_LOADS)
    cluster = Cluster(
        n_nodes=n_nodes,
        heuristic_factory=UniformHeuristic if use_hpc else None,
    )
    placement = _placement_for(
        strategy, loads, n_nodes, cluster.cpus_per_node
    )
    programs = [_worker(load, iterations) for load in loads]
    cluster.launch(programs, placement)
    exec_time = cluster.run()
    return ClusterRunResult(
        placement=placement,
        exec_time=exec_time,
        node_loads=placement.node_loads(loads),
        events=cluster.sim.events_processed,
        rank_exit=dict(cluster.rank_exit),
        messages_sent=cluster.runtime.messages_sent,
        messages_delivered=cluster.runtime.messages_delivered,
    )

