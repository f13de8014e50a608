"""Parameterized imbalance generators (the ``synth`` workload family).

The paper's workloads hit a handful of fixed imbalance shapes; this
module generates imbalance *on demand*, in the style of the
cluster-dlb-benchmarks suite ("Two-level Dynamic Load Balancing for
High Performance Scientific Applications"):

* :func:`calculate_work` — a closed-form split of ``ranks * mean_work``
  total work such that the realized **imbalance factor**
  ``max(work) / mean(work)`` equals a requested target exactly (to
  float precision).  The worst rank is pinned at ``I * mean_work``; the
  remainder is stick-broken uniformly at random over the other ranks,
  capped at the worst rank's share, with the slack-sampling trick that
  keeps resampling cheap at high imbalance.
* :class:`SyntheticScatter` — N barrier-synchronized ranks running a
  :func:`calculate_work` distribution, pinned one per logical CPU.
  ``placement="paired"`` (default) co-schedules heavy-with-light on
  each SMT core — the regime the POWER5 priority mechanism can fix.
* :class:`LocalBad` — the same distribution under a *pathological*
  placement: similar loads share a core (heavy-with-heavy), so local
  priority shifting has nothing to trade.  The stressor for placement
  sensitivity.
* :class:`SyntheticConvergence` — a step change at a known iteration:
  every SMT pair runs (heavy, light) until ``step_at``, then swaps (and
  optionally swaps back at ``revert_at``).  Together with
  :mod:`repro.analysis.convergence` this measures *reaction speed* —
  how many detector epochs the Uniform/Adaptive heuristics need to
  rebalance — not just where wall time ends up.
* :class:`OffloadLatency` — many tiny request/response messages per
  iteration between core-pair partners: the wakeup-latency stressor
  (SIESTA's failure mode, made parametric).
* :func:`unbalanced_sweep` — the (imbalance x rank-count) grid
  expansion used by the ``synth-sweep`` campaign preset.

Everything is byte-deterministic under a fixed seed: the same
``(seed, ranks, imbalance, mean_work)`` always yields the same floats.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.mpi.process import MPIRank
from repro.power5.machine import MachineTopology
from repro.power5.perfmodel import CPU_BOUND, PerfProfile
from repro.workloads.base import RankSpec, Workload

#: Default per-rank mean work in simulated seconds.  Large against the
#: detector's ``hpcsched/min_iter_time`` (1e-4) so every compute+barrier
#: cycle closes a real iteration.
DEFAULT_MEAN_WORK = 1.0
DEFAULT_ITERATIONS = 10

#: Salt mixed into the seed sequence so synth streams never collide
#: with other seeded users of the same small integers.
_SEED_SALT = 0x53594E54  # "SYNT"

#: Placement policies for mapping a load distribution onto SMT cores.
PLACEMENTS = ("paired", "bad", "shuffled")


def _entropy_for(seed: int, ranks: int, imbalance: float, mean_work: float) -> Tuple[int, ...]:
    """A SeedSequence entropy tuple covering every generator parameter,
    so distinct configurations draw independent streams."""
    return (
        _SEED_SALT,
        seed,
        ranks,
        int.from_bytes(struct.pack("<d", float(imbalance)), "little"),
        int.from_bytes(struct.pack("<d", float(mean_work)), "little"),
    )


def _stick_break(
    rng: np.random.Generator, m: int, total: float, cap: float
) -> List[float]:
    """``m`` non-negative pieces summing to ``total``, each ``<= cap``.

    Classic stick breaking: sort ``m - 1`` uniform cuts on
    ``[0, total]`` and take the gaps.  A draw with a gap above ``cap``
    is rejected and resampled; after a bounded number of rejections the
    even split (always feasible: ``total <= m * cap`` by construction)
    is returned so the generator can never spin.
    """
    if m <= 0:
        return []
    if m == 1:
        return [total]
    if total <= 0.0:
        return [0.0] * m
    for _ in range(1000):
        cuts = np.sort(rng.uniform(0.0, total, m - 1))
        edges = np.concatenate(([0.0], cuts, [total]))
        pieces = np.diff(edges)
        if float(pieces.max()) <= cap:
            return [float(p) for p in pieces]
    return [total / m] * m


def calculate_work(
    ranks: int,
    imbalance: float,
    mean_work: float = DEFAULT_MEAN_WORK,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> List[float]:
    """Per-rank work with an exact target imbalance factor.

    The imbalance factor is the classic ``max(work) / mean(work)``;
    feasible targets are ``1.0 <= imbalance <= ranks`` (at ``ranks``
    one rank holds *all* the work).  The worst rank receives exactly
    ``imbalance * mean_work``; the remaining
    ``(ranks - imbalance) * mean_work`` is split uniformly at random
    over the other ranks, every share capped at the worst rank's.
    When the cap makes rejection likely (``rest`` close to the cap
    ceiling) the *slack* is sampled instead and subtracted — the
    cluster-dlb-benchmarks trick that keeps sampling cheap at any
    target.

    Returns the loads in randomized rank order (the worst rank is not
    always rank 0).  Deterministic: a fixed ``seed`` (or an explicit
    ``rng``) always produces byte-identical floats.
    """
    if ranks < 1:
        raise ValueError(f"need at least one rank, got {ranks}")
    if mean_work <= 0:
        raise ValueError(f"mean_work must be positive, got {mean_work}")
    if not 1.0 <= imbalance <= ranks:
        raise ValueError(
            f"imbalance factor {imbalance} infeasible on {ranks} ranks "
            f"(feasible range is [1.0, {ranks}])"
        )
    if ranks == 1 or imbalance == 1.0:
        return [mean_work] * ranks
    if rng is None:
        rng = np.random.default_rng(
            np.random.SeedSequence(_entropy_for(seed, ranks, imbalance, mean_work))
        )
    worst = imbalance * mean_work
    rest = ranks * mean_work - worst  # work left for the other ranks
    slack = (ranks - 1) * worst - rest  # headroom below the cap
    if rest <= slack:
        others = _stick_break(rng, ranks - 1, rest, worst)
    else:
        # Near-balanced targets: sampling the (smaller) slack and
        # subtracting from a full allocation rarely violates the cap.
        others = [worst - s for s in _stick_break(rng, ranks - 1, slack, worst)]
    loads = [worst] + others
    order = rng.permutation(ranks)
    return [loads[i] for i in order]


def _paired_order(loads: Sequence[float]) -> List[float]:
    """Heavy-with-light per SMT core: sorted loads interleaved so core
    ``k`` hosts the k-th lightest and k-th heaviest rank."""
    asc = sorted(loads)
    out: List[float] = []
    lo, hi = 0, len(asc) - 1
    while lo < hi:
        out.extend((asc[lo], asc[hi]))
        lo += 1
        hi -= 1
    if lo == hi:
        out.append(asc[lo])
    return out


def _bad_order(loads: Sequence[float]) -> List[float]:
    """Heavy-with-heavy per SMT core: sorted loads placed consecutively,
    so both siblings of a core want the high priority — the local
    balancing worst case."""
    return sorted(loads)


class SyntheticScatter(Workload):
    """N barrier-synchronized ranks with an exact target imbalance.

    One rank per logical CPU (``topology()`` sizes the machine), each
    iterating ``compute(load)`` + ``barrier``.  ``placement`` maps the
    generated distribution onto SMT cores: ``paired`` (fixable by
    priorities), ``bad`` (pathological), ``shuffled`` (as generated).
    """

    name = "synthetic_scatter"

    def __init__(
        self,
        imbalance: float = 2.0,
        ranks: int = 8,
        iterations: int = DEFAULT_ITERATIONS,
        mean_work: float = DEFAULT_MEAN_WORK,
        seed: int = 0,
        placement: str = "paired",
        loads: Optional[Sequence[float]] = None,
        profile: PerfProfile = CPU_BOUND,
    ) -> None:
        if ranks < 2:
            raise ValueError(f"need at least two ranks, got {ranks}")
        if iterations < 1:
            raise ValueError(f"need at least one iteration, got {iterations}")
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; pick from {PLACEMENTS}"
            )
        self.imbalance = imbalance
        self.ranks = ranks
        self.iterations = iterations
        self.mean_work = mean_work
        self.seed = seed
        self.placement = placement
        self.profile = profile
        raw = (
            list(loads)
            if loads is not None
            else calculate_work(ranks, imbalance, mean_work=mean_work, seed=seed)
        )
        if len(raw) != ranks:
            raise ValueError(f"got {len(raw)} loads for {ranks} ranks")
        if placement == "paired":
            self.loads = _paired_order(raw)
        elif placement == "bad":
            self.loads = _bad_order(raw)
        else:
            self.loads = list(raw)
        self.cpus = list(range(ranks))

    # ------------------------------------------------------------------
    def worker_load(self, worker: int, iteration: int) -> float:
        """Load of ``worker`` in ``iteration`` (both 0-based)."""
        return self.loads[worker]

    def topology(self) -> MachineTopology:
        """The smallest paper-shaped machine that pins one rank per
        logical CPU (4 CPUs per chip)."""
        per_chip = MachineTopology().n_cpus
        return MachineTopology(chips=max(1, math.ceil(self.ranks / per_chip)))

    def _program(self, worker: int):
        def factory(mpi: MPIRank) -> Generator:
            def prog():
                for it in range(self.iterations):
                    yield mpi.compute(self.worker_load(worker, it))
                    yield mpi.barrier()

            return prog()

        return factory

    def rank_specs(self) -> List[RankSpec]:
        return [
            RankSpec(
                name=f"R{w + 1}",
                factory=self._program(w),
                profile=self.profile,
                cpu=cpu,
            )
            for w, cpu in enumerate(self.cpus)
        ]


class LocalBad(SyntheticScatter):
    """:class:`SyntheticScatter` under the pathological placement:
    similar loads share each SMT core, so the in-core priority window
    has no heavy/light pair to trade between."""

    name = "local_bad"

    def __init__(
        self,
        imbalance: float = 2.0,
        ranks: int = 8,
        iterations: int = DEFAULT_ITERATIONS,
        mean_work: float = DEFAULT_MEAN_WORK,
        seed: int = 0,
        loads: Optional[Sequence[float]] = None,
        profile: PerfProfile = CPU_BOUND,
    ) -> None:
        super().__init__(
            imbalance=imbalance,
            ranks=ranks,
            iterations=iterations,
            mean_work=mean_work,
            seed=seed,
            placement="bad",
            loads=loads,
            profile=profile,
        )


class SyntheticConvergence(SyntheticScatter):
    """A step change in load at a known iteration.

    Every SMT core pair runs (light, heavy) = ``((2 - I) * mean_work,
    I * mean_work)`` — per-pair mean ``mean_work``, pair imbalance
    factor exactly ``I`` — until iteration ``step_at``, at which point
    partners swap loads (and swap back at ``revert_at``, if given: the
    MetBenchVar-style reversal).  Because the *distribution* is
    identical before and after the step, any post-step slowdown is
    purely the balancer's reaction time — the quantity
    :mod:`repro.analysis.convergence` extracts.

    Feasible pair targets are ``1.0 <= imbalance <= 2.0`` (at 2.0 the
    light partner has zero work).
    """

    name = "synthetic_convergence"

    def __init__(
        self,
        ranks: int = 16,
        imbalance: float = 1.5,
        iterations: int = 12,
        step_at: Optional[int] = None,
        revert_at: Optional[int] = None,
        mean_work: float = DEFAULT_MEAN_WORK,
        profile: PerfProfile = CPU_BOUND,
    ) -> None:
        if ranks < 2 or ranks % 2:
            raise ValueError(f"ranks must be even and >= 2, got {ranks}")
        if not 1.0 <= imbalance <= 2.0:
            raise ValueError(
                f"pair imbalance factor {imbalance} infeasible "
                "(feasible range is [1.0, 2.0])"
            )
        step_at = iterations // 2 if step_at is None else step_at
        if not 0 < step_at < iterations:
            raise ValueError(
                f"step_at {step_at} outside (0, {iterations})"
            )
        if revert_at is not None and not step_at < revert_at < iterations:
            raise ValueError(
                f"revert_at {revert_at} outside ({step_at}, {iterations})"
            )
        light = (2.0 - imbalance) * mean_work
        heavy = imbalance * mean_work
        loads = [light, heavy] * (ranks // 2)
        super().__init__(
            imbalance=imbalance,
            ranks=ranks,
            iterations=iterations,
            mean_work=mean_work,
            seed=0,
            placement="shuffled",  # the pair structure IS the placement
            loads=loads,
            profile=profile,
        )
        self.step_at = step_at
        self.revert_at = revert_at

    def worker_load(self, worker: int, iteration: int) -> float:
        """Partners swap loads at ``step_at`` (and back at ``revert_at``)."""
        swapped = iteration >= self.step_at
        if self.revert_at is not None and iteration >= self.revert_at:
            swapped = not swapped
        return self.loads[worker ^ 1] if swapped else self.loads[worker]


class OffloadLatency(Workload):
    """Many tiny request/response messages: the wakeup-latency stressor.

    Ranks are paired per SMT core.  Each iteration, the even rank
    (*origin*) computes a base load and then offloads ``messages``
    tiny work items to its partner, blocking for each response; the
    partner blocks for each request, computes the tiny chunk, and
    replies.  Per message the scheduler sees two sleeps and two
    wakeups, so per-message cost is dominated by wakeup latency —
    exactly what SCHED_HPC's run-immediately semantics buy (SIESTA's
    regime, paper Table VI), made parametric.
    """

    name = "offload_latency"

    #: Request/response tags.
    _REQ, _RSP = 101, 102

    def __init__(
        self,
        ranks: int = 8,
        iterations: int = 4,
        messages: int = 16,
        chunk_work: float = 1e-3,
        origin_work: float = 0.05,
        profile: PerfProfile = CPU_BOUND,
    ) -> None:
        if ranks < 2 or ranks % 2:
            raise ValueError(f"ranks must be even and >= 2, got {ranks}")
        if messages < 1:
            raise ValueError(f"need at least one message, got {messages}")
        self.ranks = ranks
        self.iterations = iterations
        self.messages = messages
        self.chunk_work = chunk_work
        self.origin_work = origin_work
        self.profile = profile
        self.cpus = list(range(ranks))

    def _origin(self, rank: int):
        partner = rank + 1

        def factory(mpi: MPIRank) -> Generator:
            def prog():
                for _ in range(self.iterations):
                    yield mpi.compute(self.origin_work)
                    for _ in range(self.messages):
                        yield mpi.send(partner, tag=self._REQ)
                        yield mpi.recv(partner, tag=self._RSP)
                    yield mpi.barrier()

            return prog()

        return factory

    def _worker(self, rank: int):
        partner = rank - 1

        def factory(mpi: MPIRank) -> Generator:
            def prog():
                for _ in range(self.iterations):
                    for _ in range(self.messages):
                        yield mpi.recv(partner, tag=self._REQ)
                        yield mpi.compute(self.chunk_work)
                        yield mpi.send(partner, tag=self._RSP)
                    yield mpi.barrier()

            return prog()

        return factory

    def topology(self) -> MachineTopology:
        """The smallest paper-shaped machine that pins one rank per
        logical CPU (4 CPUs per chip)."""
        per_chip = MachineTopology().n_cpus
        return MachineTopology(chips=max(1, math.ceil(self.ranks / per_chip)))

    def rank_specs(self) -> List[RankSpec]:
        specs: List[RankSpec] = []
        for rank, cpu in enumerate(self.cpus):
            factory = self._origin(rank) if rank % 2 == 0 else self._worker(rank)
            specs.append(
                RankSpec(
                    name=f"R{rank + 1}",
                    factory=factory,
                    profile=self.profile,
                    cpu=cpu,
                )
            )
        return specs


def unbalanced_sweep(
    imbalances: Sequence[float] = (1.0, 1.5, 2.0, 4.0),
    ranks: Sequence[int] = (4, 16, 64),
) -> List[Dict[str, object]]:
    """The (imbalance x rank-count) grid, infeasible cells dropped.

    Each cell is a parameter dict consumable as campaign ``params`` for
    the ``synth_scatter`` experiment (or directly by
    :class:`SyntheticScatter`).
    """
    grid: List[Dict[str, object]] = []
    for n in ranks:
        for imbalance in imbalances:
            if 1.0 <= imbalance <= n:
                grid.append({"imbalance": float(imbalance), "ranks": int(n)})
    return grid
