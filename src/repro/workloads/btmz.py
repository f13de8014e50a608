"""BT-MZ — a NAS Multi-Zone Block-Tridiagonal-like workload (paper §V-C).

BT-MZ partitions the discretization mesh into zones of uneven size; each
rank advances its zones for one time step, exchanges boundary data with
its neighbors *asynchronously* (``mpi_isend``/``mpi_irecv``) and then
waits for the exchange with ``mpi_waitall`` — so ranks synchronize only
with their neighbors, not globally.  The paper runs class A for 200
iterations; its baseline per-rank %Comp is (17.6, 29.9, 66.1, 99.9) —
rank 4 owns the heaviest zones and paces the whole computation through
the neighbor chain.

The default zone works are calibrated so the simulated baseline matches
that utilization ladder and a ~95 s execution time; the MIXED
performance profile reflects BT-MZ's memory-heavy CFD character (the
prioritized task gains, the de-prioritized one barely loses).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from repro.mpi.process import MPIRank
from repro.power5.perfmodel import MIXED, PerfProfile
from repro.workloads.base import RankSpec, Workload

#: Calibrated per-rank zone works (seconds at SMT-equal speed).
DEFAULT_ZONE_WORKS = [0.110, 0.186, 0.314, 0.5315]
DEFAULT_ITERATIONS = 200

#: Boundary-exchange message size (bytes) — the paper reports the
#: communication phase is ~0.1% of execution time.
BOUNDARY_BYTES = 64 * 1024


class BTMZ(Workload):
    """Multi-zone SPMD solver with ring neighbor exchange."""

    name = "bt-mz"

    def __init__(
        self,
        zone_works: Optional[Sequence[float]] = None,
        iterations: int = DEFAULT_ITERATIONS,
        profile: PerfProfile = MIXED,
        cpus: Optional[Sequence[int]] = None,
    ) -> None:
        self.zone_works: List[float] = list(
            zone_works if zone_works is not None else DEFAULT_ZONE_WORKS
        )
        if len(self.zone_works) < 2:
            raise ValueError("BT-MZ needs at least two ranks")
        if iterations < 1:
            raise ValueError(f"need at least one iteration, got {iterations}")
        self.iterations = iterations
        self.profile = profile
        self.cpus = (
            list(cpus) if cpus is not None else list(range(len(self.zone_works)))
        )

    def neighbors(self, rank: int) -> List[int]:
        """Ring topology: boundary zones touch the adjacent ranks'."""
        n = len(self.zone_works)
        return sorted({(rank - 1) % n, (rank + 1) % n} - {rank})

    def _program(self, rank: int):
        work = self.zone_works[rank]
        nbrs = self.neighbors(rank)

        def factory(mpi: MPIRank) -> Generator:
            def prog():
                for it in range(self.iterations):
                    # Post boundary receives up front (tagged by
                    # iteration so a fast neighbor's next-step data
                    # cannot satisfy this step's receive).
                    recvs = [mpi.irecv(n, tag=it) for n in nbrs]
                    yield mpi.compute(work)
                    sends = [
                        mpi.isend(n, tag=it, size=BOUNDARY_BYTES) for n in nbrs
                    ]
                    yield mpi.waitall(recvs + sends)

            return prog()

        return factory

    def rank_specs(self) -> List[RankSpec]:
        """One pinned rank per zone set."""
        return [
            RankSpec(
                name=f"P{r + 1}",
                factory=self._program(r),
                profile=self.profile,
                cpu=self.cpus[r],
            )
            for r in range(len(self.zone_works))
        ]
