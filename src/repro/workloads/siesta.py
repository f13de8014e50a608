"""A SIESTA-like irregular workload (paper §V-D).

SIESTA (ab-initio order-N materials simulation) on the benzene input
shows, per the paper's trace: imbalance caused by both algorithm and
input (per-rank %Comp 98.9 / 52.8 / 28.5 / 20.0), *non-constant*
iterations (iteration i is not representative of i+1, defeating the
static approach and mostly defeating the heuristics), very short
execution phases and many small messages — making the application
highly sensitive to scheduler latency, which is where HPCSched's ~6%
improvement comes from.

The model: an SCF (self-consistent field) outer loop; each step runs
many short sub-iterations — a rank-dependent, randomly varying compute
chunk followed by a global ``allreduce`` (the residual reduction).  The
per-rank mean chunk sizes encode the intrinsic imbalance; a seeded
lognormal factor per (rank, sub-iteration) plus a per-step modulation
provide the non-representative dynamics.  The MEM_BOUND performance
profile makes hardware prioritization nearly ineffective, as measured.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

import numpy as np

from repro.mpi.process import MPIRank
from repro.power5.perfmodel import MEM_BOUND, PerfProfile
from repro.workloads.base import RankSpec, Workload

#: Mean compute chunk per rank (seconds at SMT-equal speed), encoding the
#: benzene-input imbalance ladder of Table VI.
DEFAULT_CHUNK_MEANS = [0.0160, 0.0085, 0.0046, 0.0032]
DEFAULT_SCF_STEPS = 20
DEFAULT_SUBITERS = 250
#: Lognormal sigma of the per-chunk variation, per rank.  The heavy
#: rank's work (dense orbital blocks) is steadier than the light ranks'
#: (scattered sparse work), matching the paper's trace where P1 computes
#: ~99% of the time while the others fluctuate.
DEFAULT_SIGMA = (0.10, 0.35, 0.35, 0.35)
#: Residual message size for the allreduce.
RESIDUAL_BYTES = 4096


class Siesta(Workload):
    """Irregular SCF loop with frequent global reductions."""

    name = "siesta"

    def __init__(
        self,
        chunk_means: Optional[Sequence[float]] = None,
        scf_steps: int = DEFAULT_SCF_STEPS,
        subiters: int = DEFAULT_SUBITERS,
        sigma=DEFAULT_SIGMA,
        seed: int = 20080415,
        profile: PerfProfile = MEM_BOUND,
        cpus: Optional[Sequence[int]] = None,
    ) -> None:
        self.chunk_means: List[float] = list(
            chunk_means if chunk_means is not None else DEFAULT_CHUNK_MEANS
        )
        self.scf_steps = scf_steps
        self.subiters = subiters
        n = len(self.chunk_means)
        if isinstance(sigma, (int, float)):
            self.sigma = [float(sigma)] * n
        else:
            self.sigma = list(sigma)[:n]
            self.sigma += [self.sigma[-1]] * (n - len(self.sigma))
        self.seed = seed
        self.profile = profile
        self.cpus = (
            list(cpus) if cpus is not None else list(range(len(self.chunk_means)))
        )
        self._chunks = self._generate_chunks()

    # ------------------------------------------------------------------
    def _generate_chunks(self) -> np.ndarray:
        """Pre-generate every rank's chunk sizes, deterministically.

        Shape: (ranks, scf_steps, subiters).  A per-(step, rank)
        modulation makes whole phases heavier or lighter — iteration i
        genuinely does not predict iteration i+1.
        """
        rng = np.random.default_rng(self.seed)
        n = len(self.chunk_means)
        base = np.asarray(self.chunk_means)[:, None, None]
        sigma = np.asarray(self.sigma)[:, None, None]
        gauss = rng.normal(size=(n, self.scf_steps, self.subiters))
        # Lognormal with per-rank sigma, normalized to preserve means.
        noise = np.exp(sigma * gauss - sigma**2 / 2.0)
        step_mod = rng.uniform(0.8, 1.2, size=(n, self.scf_steps, 1))
        return base * noise * step_mod

    def chunk(self, rank: int, step: int, sub: int) -> float:
        """The pre-generated compute chunk of one sub-iteration."""
        return float(self._chunks[rank, step, sub])

    # ------------------------------------------------------------------
    def _program(self, rank: int):
        def factory(mpi: MPIRank) -> Generator:
            def prog():
                for step in range(self.scf_steps):
                    for sub in range(self.subiters):
                        yield mpi.compute(self.chunk(rank, step, sub))
                        yield mpi.allreduce()

            return prog()

        return factory

    def rank_specs(self) -> List[RankSpec]:
        """One pinned rank per chunk-mean entry."""
        return [
            RankSpec(
                name=f"P{r + 1}",
                factory=self._program(r),
                profile=self.profile,
                cpu=self.cpus[r],
            )
            for r in range(len(self.chunk_means))
        ]
