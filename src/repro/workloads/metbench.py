"""MetBench — BSC's Minimum Execution Time Benchmark (paper §V-A).

A framework of one master and several workers: each worker executes its
assigned load and then waits on an ``mpi_barrier`` for all the others;
the master keeps the workers strictly synchronized and starts the next
iteration.  Master and workers exchange data only during initialization.

Imbalance is introduced by assigning a larger load to one worker of
each SMT core pair: the small-load worker spends ~75% of its time
waiting (paper Table III: %Comp 25.3 / 100.0 / 25.3 / 100.0).

Default loads are calibrated against the paper's Table III (see
EXPERIMENTS.md): ``big/small`` work ratio such that at equal priority
the small worker computes ~25% of the iteration, and absolute sizes
such that the 45-iteration baseline run takes ~82 simulated seconds.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from repro.mpi.process import MPIRank
from repro.power5.perfmodel import CPU_BOUND, PerfProfile
from repro.workloads.base import RankSpec, Workload

#: Calibrated defaults (see DESIGN.md §2 for the back-solve).
DEFAULT_SMALL_LOAD = 0.4604
DEFAULT_BIG_LOAD = 3.310
DEFAULT_ITERATIONS = 45
#: The master's per-iteration coordination work (negligible, as in the
#: real MetBench where the master only synchronizes).
MASTER_WORK = 1e-5


class MetBench(Workload):
    """Master + ``n_workers`` workers with per-worker loads."""

    name = "metbench"

    def __init__(
        self,
        loads: Optional[Sequence[float]] = None,
        iterations: int = DEFAULT_ITERATIONS,
        profile: PerfProfile = CPU_BOUND,
        profiles: Optional[Sequence[PerfProfile]] = None,
        cpus: Optional[Sequence[int]] = None,
        master_cpu: int = 0,
    ) -> None:
        if iterations < 1:
            raise ValueError(f"need at least one iteration, got {iterations}")
        #: Per-worker loads; the default alternates small/big so that
        #: each POWER5 core hosts one small and one big worker.
        self.loads: List[float] = list(
            loads
            if loads is not None
            else [
                DEFAULT_SMALL_LOAD,
                DEFAULT_BIG_LOAD,
                DEFAULT_SMALL_LOAD,
                DEFAULT_BIG_LOAD,
            ]
        )
        self.iterations = iterations
        self.profile = profile
        #: Optional per-worker profiles — the real MetBench ships several
        #: load kinds (integer, FP, memory-streaming); mixing profiles
        #: lets experiments study prioritization of heterogeneous pairs.
        self.profiles: List[PerfProfile] = (
            list(profiles)
            if profiles is not None
            else [profile] * len(self.loads)
        )
        if len(self.profiles) != len(self.loads):
            raise ValueError("profiles and loads must have equal length")
        self.cpus = list(cpus) if cpus is not None else list(range(len(self.loads)))
        self.master_cpu = master_cpu

    # ------------------------------------------------------------------
    def worker_load(self, worker: int, iteration: int) -> float:
        """Load of ``worker`` (0-based) in ``iteration`` (0-based).

        Constant in plain MetBench; MetBenchVar overrides this.
        """
        return self.loads[worker]

    def _worker_program(self, worker: int):
        def factory(mpi: MPIRank) -> Generator:
            def prog():
                # Initialization: configuration broadcast from the master.
                yield mpi.bcast()
                for it in range(self.iterations):
                    yield mpi.compute(self.worker_load(worker, it))
                    yield mpi.barrier()

            return prog()

        return factory

    def _master_program(self):
        def factory(mpi: MPIRank) -> Generator:
            def prog():
                yield mpi.bcast()
                for _ in range(self.iterations):
                    yield mpi.compute(MASTER_WORK)
                    yield mpi.barrier()

            return prog()

        return factory

    def rank_specs(self) -> List[RankSpec]:
        """The master plus one pinned worker per load."""
        specs = [
            RankSpec(
                name="master",
                factory=self._master_program(),
                profile=self.profile,
                cpu=self.master_cpu,
                measured=False,
            )
        ]
        for w, cpu in enumerate(self.cpus):
            specs.append(
                RankSpec(
                    name=f"P{w + 1}",
                    factory=self._worker_program(w),
                    profile=self.profiles[w],
                    cpu=cpu,
                )
            )
        return specs
