"""Task performance as a function of SMT decode allocation.

The scheduler does not care about micro-architecture per se — it observes
only *how fast a task progresses* given (a) the hardware-priority
difference with its core sibling and (b) whether the sibling context is
busy at all.  The paper relies on the empirical characterization of
Boneti et al. (ISCA 2008, reference [4]) for that mapping; since that
characterization is data we do not have, we substitute two models:

:class:`TableDrivenModel`
    A per-profile lookup ``priority difference -> speed multiplier``
    calibrated so the paper's reported behaviour is reproduced:

    * conclusion 1 of [4]: speeding one task up by X% can slow the
      sibling by ~10X% (strong asymmetry),
    * conclusion 2 of [4]: a priority difference of +2 yields ~95% of the
      maximum (single-thread-mode) improvement,
    * Table III of the paper: a CPU-bound task running in ST mode is
      about twice as fast as when sharing the core 50/50 (this is what
      makes the static-balance arithmetic of Table III come out).

:class:`DecodeShareModel`
    An analytic Amdahl-style alternative: a ``decode_fraction`` of the
    task's work scales inversely with its decode share, the rest (memory
    stalls) does not.  Used for ablations and as a sanity cross-check.

All speeds are multipliers relative to the *SMT-equal* baseline: a task
with both contexts busy at equal priority progresses at speed 1.0, i.e.
one work unit per simulated second.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict

from repro.power5.decode import decode_shares
from repro.power5.priorities import HWPriority


@dataclass(frozen=True)
class PerfProfile:
    """Workload character used by the performance models.

    Attributes
    ----------
    name:
        Identifier (also used in traces).
    st_speedup:
        Speed in single-thread mode (sibling context idle/off) relative
        to the SMT-equal baseline.
    decode_fraction:
        Fraction of execution limited by decode bandwidth, used by
        :class:`DecodeShareModel` (0 = fully memory-bound, 1 = fully
        decode-bound).
    dprio_speed:
        Calibrated speed multiplier per priority difference (this task's
        priority minus the sibling's), used by :class:`TableDrivenModel`.
        Missing differences are clamped to the nearest table edge.
    """

    name: str
    st_speedup: float
    decode_fraction: float
    dprio_speed: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The calibrated range never changes after construction; caching
        # the bounds keeps table_speed — called once per rate change —
        # from re-scanning the dict.  (object.__setattr__ because the
        # dataclass is frozen.)
        bounds = (
            (min(self.dprio_speed), max(self.dprio_speed))
            if self.dprio_speed
            else (0, 0)
        )
        object.__setattr__(self, "_dprio_bounds", bounds)

    def table_speed(self, dprio: int) -> float:
        """Lookup with clamping to the calibrated range."""
        if not self.dprio_speed:
            return 1.0
        lo, hi = self._dprio_bounds
        return self.dprio_speed[max(lo, min(hi, dprio))]


#: CPU/decode-bound profile (MetBench-style synthetic loads).  ST mode is
#: ~2x the SMT-equal speed; +2 priority difference reaches ~95% of that
#: improvement; the de-prioritized sibling collapses to ~0.29x — numbers
#: back-solved from the paper's Table III (see DESIGN.md §2).
CPU_BOUND = PerfProfile(
    name="cpu_bound",
    st_speedup=2.10,
    decode_fraction=0.95,
    dprio_speed={
        -4: 0.12,
        -3: 0.18,
        -2: 0.29,
        -1: 0.45,
        0: 1.0,
        1: 1.70,
        2: 2.05,
        3: 2.07,
        4: 2.08,
    },
)

#: Mixed compute/memory profile (BT-MZ-style CFD): the prioritized task
#: gains substantially (its decode-bound portion) while the
#: de-prioritized sibling barely slows (its memory stalls hide the
#: decode starvation) — the favourable asymmetry the paper exploits on
#: BT-MZ (16% gain with priorities (4,4,5,6), Table V).
MIXED = PerfProfile(
    name="mixed",
    st_speedup=1.33,
    decode_fraction=0.55,
    dprio_speed={
        -4: 0.88,
        -3: 0.90,
        -2: 0.93,
        -1: 0.96,
        0: 1.0,
        1: 1.30,
        2: 1.32,
        3: 1.33,
        4: 1.33,
    },
)

#: Memory-bound profile (SIESTA-style sparse linear algebra): decode
#: priorities barely matter, so balancing via prioritization is nearly
#: ineffective — SIESTA's gains must come from scheduling latency
#: instead (paper §V-D).
MEM_BOUND = PerfProfile(
    name="mem_bound",
    st_speedup=1.05,
    decode_fraction=0.08,
    dprio_speed={
        -4: 0.95,
        -3: 0.96,
        -2: 0.975,
        -1: 0.99,
        0: 1.0,
        1: 1.01,
        2: 1.02,
        3: 1.03,
        4: 1.035,
    },
)


class PerformanceModel(ABC):
    """Maps (profile, core SMT state) to a task execution rate."""

    @abstractmethod
    def speed(
        self,
        profile: PerfProfile,
        own_priority: int,
        sibling_priority: int,
        sibling_busy: bool,
    ) -> float:
        """Speed multiplier for a task on one context of a core.

        ``sibling_busy`` is ``False`` when the other context has no
        runnable work (the Linux idle loop snoozes at very low priority,
        effectively putting the core in single-thread mode).
        """

    def st_speed(self, profile: PerfProfile) -> float:
        """Speed when the core is effectively in single-thread mode."""
        return profile.st_speedup

    def speed_pair(
        self,
        profile_a: PerfProfile,
        profile_b: PerfProfile,
        prio_a: int,
        prio_b: int,
        busy_a: bool,
        busy_b: bool,
    ) -> "tuple[float, float]":
        """Both contexts' speeds in one call — the rate-propagation drain
        uses this when a core has two running tasks, so implementations
        can answer the pair from a single lookup instead of two
        independent ``speed`` calls with mirrored arguments.  The default
        simply composes :meth:`speed` twice (exactness by construction
        for any model)."""
        return (
            self.speed(profile_a, prio_a, prio_b, busy_b),
            self.speed(profile_b, prio_b, prio_a, busy_a),
        )


class TableDrivenModel(PerformanceModel):
    """Calibrated lookup on the priority difference (primary model)."""

    def __init__(self) -> None:
        # The model is a pure function of (profile, priorities, busy);
        # memoize per profile *identity* — the pinned reference list
        # keeps every keyed profile alive so an id cannot be recycled.
        self._memo: dict = {}
        self._memo_pins: list = []
        #: Pair-call memo (see :meth:`speed_pair`): one dict hit answers
        #: both contexts of a dual-running core.
        self._pair_memo: dict = {}

    def speed(
        self,
        profile: PerfProfile,
        own_priority: int,
        sibling_priority: int,
        sibling_busy: bool,
    ) -> float:
        key = (id(profile), own_priority, sibling_priority, sibling_busy)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        v = self._speed(profile, own_priority, sibling_priority, sibling_busy)
        self._memo[key] = v
        self._memo_pins.append(profile)
        return v

    def _speed(
        self,
        profile: PerfProfile,
        own_priority: int,
        sibling_priority: int,
        sibling_busy: bool,
    ) -> float:
        if not sibling_busy:
            return self.st_speed(profile)
        if sibling_priority == HWPriority.THREAD_OFF:
            return self.st_speed(profile)
        if own_priority == HWPriority.THREAD_OFF:
            return 0.0
        if own_priority == HWPriority.VERY_HIGH:
            return self.st_speed(profile)
        dprio = int(own_priority) - int(sibling_priority)
        return profile.table_speed(dprio)

    def speed_pair(
        self,
        profile_a: PerfProfile,
        profile_b: PerfProfile,
        prio_a: int,
        prio_b: int,
        busy_a: bool,
        busy_b: bool,
    ) -> "tuple[float, float]":
        key = (id(profile_a), id(profile_b), prio_a, prio_b, busy_a, busy_b)
        hit = self._pair_memo.get(key)
        if hit is not None:
            return hit
        pair = (
            self.speed(profile_a, prio_a, prio_b, busy_b),
            self.speed(profile_b, prio_b, prio_a, busy_a),
        )
        self._pair_memo[key] = pair
        self._memo_pins.append(profile_a)
        self._memo_pins.append(profile_b)
        return pair


class DecodeShareModel(PerformanceModel):
    """Analytic Amdahl-style model on the exact Table I decode share.

    The time per unit of work is split into a decode-limited fraction
    ``f`` that scales inversely with the decode share ``s`` (normalized
    to the equal split ``s = 0.5``) and a residual fraction ``1 - f``
    that does not::

        time(s) = (1 - f) + f * (0.5 / s)        speed(s) = 1 / time(s)

    Single-thread mode uses the profile's ``st_speedup`` directly, since
    an idle sibling frees more than decode slots (queues, cache, ...).
    """

    def speed(
        self,
        profile: PerfProfile,
        own_priority: int,
        sibling_priority: int,
        sibling_busy: bool,
    ) -> float:
        if not sibling_busy:
            return self.st_speed(profile)
        share_self, _ = decode_shares(own_priority, sibling_priority)
        if share_self <= 0.0:
            return 0.0
        if share_self >= 1.0:
            return self.st_speed(profile)
        f = profile.decode_fraction
        time_per_unit = (1.0 - f) + f * (0.5 / share_self)
        speed = 1.0 / time_per_unit
        # An idle-ish sibling share cannot make a thread faster than the
        # true single-thread mode.
        return min(speed, self.st_speed(profile))
