"""Gang placement strategies.

A *placement* maps MPI ranks to ``(node, cpu)`` slots.  The interesting
strategy is the HPCSched-aware one: the local scheduler can speed one
task of an SMT core pair up (and slow the other down) within the ±2
hardware-priority window, so the cluster scheduler should compose core
pairs whose load ratio falls inside what that window can absorb —
i.e. pair the heaviest remaining rank with the lightest remaining rank
— and spread the pair-sums evenly across nodes so inter-node imbalance
(which no local scheduler can fix) is minimized.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Slot:
    """A logical CPU of the cluster."""

    node: int
    cpu: int


@dataclass
class GangPlacement:
    """rank -> slot assignment plus bookkeeping for analysis."""

    slots: Dict[int, Slot] = field(default_factory=dict)
    #: (rank, rank) pairs sharing an SMT core, for analysis.
    core_pairs: List[Tuple[int, int]] = field(default_factory=list)

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        return self.slots[rank].node

    def node_loads(self, loads: Sequence[float]) -> Dict[int, float]:
        """Total estimated load per node under this placement."""
        out: Dict[int, float] = {}
        for rank, slot in self.slots.items():
            out[slot.node] = out.get(slot.node, 0.0) + loads[rank]
        return out


def block_placement(
    n_ranks: int, n_nodes: int, cpus_per_node: int
) -> GangPlacement:
    """Naive contiguous placement: ranks 0..k-1 on node 0, etc. —
    what ``mpirun`` does with a sorted host file."""
    if n_ranks > n_nodes * cpus_per_node:
        raise ValueError("more ranks than cluster slots")
    placement = GangPlacement()
    for rank in range(n_ranks):
        node, cpu = divmod(rank, cpus_per_node)
        placement.slots[rank] = Slot(node, cpu)
    _derive_core_pairs(placement, cpus_per_node)
    return placement


def gang_placement(
    loads: Sequence[float], n_nodes: int, cpus_per_node: int
) -> GangPlacement:
    """HPCSched-aware placement.

    1. Sort ranks by estimated load; pair heaviest with lightest (the
       SMT core pairs HPCSched can balance internally).
    2. Distribute pairs over nodes greedily by descending pair load
       (LPT), equalizing the per-node totals.
    """
    n_ranks = len(loads)
    if n_ranks > n_nodes * cpus_per_node:
        raise ValueError("more ranks than cluster slots")
    if cpus_per_node % 2 != 0:
        raise ValueError("SMT pairing requires an even cpus_per_node")

    order = sorted(range(n_ranks), key=lambda r: loads[r])
    pairs: List[Tuple[int, ...]] = []
    lo, hi = 0, n_ranks - 1
    while lo < hi:
        pairs.append((order[hi], order[lo]))  # heavy first
        lo += 1
        hi -= 1
    if lo == hi:
        pairs.append((order[lo],))

    # LPT over nodes.  The heap holds ``(node_total, node)`` for every
    # node with a free core; tuple order picks the lowest total with the
    # lowest index winning ties, exactly as a min-scan over the nodes.
    pair_load = lambda p: sum(loads[r] for r in p)  # noqa: E731
    pairs.sort(key=pair_load, reverse=True)
    node_next_cpu = [0] * n_nodes
    placement = GangPlacement()
    cores_per_node = cpus_per_node // 2
    open_nodes: List[Tuple[float, int]] = (
        [(0.0, n) for n in range(n_nodes)] if cores_per_node else []
    )
    for pair in pairs:
        total, node = heapq.heappop(open_nodes)
        base_cpu = node_next_cpu[node]
        for i, rank in enumerate(pair):
            placement.slots[rank] = Slot(node, base_cpu + i)
        node_next_cpu[node] = base_cpu + 2  # one core consumed
        if node_next_cpu[node] // 2 < cores_per_node:
            heapq.heappush(open_nodes, (total + pair_load(pair), node))
        if len(pair) == 2:
            placement.core_pairs.append((pair[0], pair[1]))
    return placement


def _derive_core_pairs(placement: GangPlacement, cpus_per_node: int) -> None:
    by_core: Dict[Tuple[int, int], List[int]] = {}
    for rank, slot in placement.slots.items():
        by_core.setdefault((slot.node, slot.cpu // 2), []).append(rank)
    for ranks in by_core.values():
        if len(ranks) == 2:
            placement.core_pairs.append((ranks[0], ranks[1]))
