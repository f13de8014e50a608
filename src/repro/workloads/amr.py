"""An AMR-like workload: gradually drifting load (paper §II-A, [11]).

Adaptive-mesh-refinement applications concentrate work where the
physics is interesting, and that concentration *moves*: a shock front
crossing the domain shifts load smoothly from one rank to the next over
many iterations.  This is a different dynamic regime from
MetBenchVar's step reversal — there is no single behaviour-change event
to detect, the detector must re-balance repeatedly as the drift crosses
its thresholds.

The model: total per-iteration work is constant; a Gaussian "refinement
front" centred at a position that advances every iteration distributes
the work across ranks.  With the front starting on rank 0 and ending on
rank N-1, every rank is the hot spot for a while.
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional, Sequence

from repro.mpi.process import MPIRank
from repro.power5.perfmodel import CPU_BOUND, PerfProfile
from repro.workloads.base import RankSpec, Workload

DEFAULT_RANKS = 4
DEFAULT_ITERATIONS = 60
#: Total work per iteration (seconds at SMT-equal speed), all ranks.
DEFAULT_TOTAL_WORK = 4.0
#: Width of the refinement front in rank units.
DEFAULT_WIDTH = 0.9
#: Baseline work floor per rank (un-refined coarse mesh).
DEFAULT_FLOOR = 0.12


class AMRDrift(Workload):
    """SPMD solver whose hot spot drifts across ranks."""

    name = "amr-drift"

    def __init__(
        self,
        ranks: int = DEFAULT_RANKS,
        iterations: int = DEFAULT_ITERATIONS,
        total_work: float = DEFAULT_TOTAL_WORK,
        width: float = DEFAULT_WIDTH,
        floor: float = DEFAULT_FLOOR,
        profile: PerfProfile = CPU_BOUND,
        cpus: Optional[Sequence[int]] = None,
    ) -> None:
        if ranks < 2:
            raise ValueError("AMR drift needs at least 2 ranks")
        if iterations < 1:
            raise ValueError(f"need at least one iteration, got {iterations}")
        self.ranks = ranks
        self.iterations = iterations
        self.total_work = total_work
        self.width = width
        self.floor = floor
        self.profile = profile
        self.cpus = list(cpus) if cpus is not None else list(range(ranks))

    # ------------------------------------------------------------------
    def front_position(self, iteration: int) -> float:
        """Centre of the refinement front, sweeping rank 0 -> N-1."""
        if self.iterations <= 1:
            return 0.0
        return (self.ranks - 1) * iteration / (self.iterations - 1)

    def work_of(self, rank: int, iteration: int) -> float:
        """Rank's share of the iteration's work: floor + its slice of a
        Gaussian centred on the front."""
        pos = self.front_position(iteration)
        weights = [
            math.exp(-((r - pos) ** 2) / (2 * self.width**2))
            for r in range(self.ranks)
        ]
        total_weight = sum(weights)
        refined = self.total_work - self.floor * self.ranks
        return self.floor + refined * weights[rank] / total_weight

    def _program(self, rank: int):
        def factory(mpi: MPIRank) -> Generator:
            def prog():
                for it in range(self.iterations):
                    yield mpi.compute(self.work_of(rank, it))
                    yield mpi.barrier()

            return prog()

        return factory

    def rank_specs(self) -> List[RankSpec]:
        """One pinned rank per mesh partition."""
        return [
            RankSpec(
                name=f"P{r + 1}",
                factory=self._program(r),
                profile=self.profile,
                cpu=self.cpus[r],
            )
            for r in range(self.ranks)
        ]
