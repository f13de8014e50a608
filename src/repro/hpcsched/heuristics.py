"""Priority-selection heuristics (paper §IV-B).

Both paper heuristics map a utilization figure to a hardware-priority
target inside ``[MIN_PRIO, MAX_PRIO]`` (default [4, 6], so the in-core
priority difference never exceeds the ±2 the authors' ISCA'08
characterization recommends):

* utilization >= ``HIGH_UTIL``  ->  the task computes almost all the
  time; give it more core resources (target ``MAX_PRIO``);
* utilization <= ``LOW_UTIL``   ->  the task mostly waits; it can afford
  to run slower (target ``MIN_PRIO``);
* in between                    ->  leave the priority alone (hysteresis
  band that prevents oscillation).

*Uniform* applies the bands to the task's **global** utilization — slow
but steady, right for constant applications.  *Adaptive* applies them to
``U = G*Ug(i-1) + L*Ul(i)`` (default G=0.1, L=0.9), reacting within an
iteration or two but liable to over-react to OS noise (paper §V-A).

Once the Load Imbalance Detector reports the application balanced, both
heuristics hold their priorities and only resume adjusting when the
behaviour changes — the "stable state" of paper §IV-B.

The band edges, the priority window and G/L are the detector's copies
of the kernel's :class:`~repro.kernel.tunables.Tunables`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.hpcsched.detector import HPCTaskStats, LoadImbalanceDetector
    from repro.kernel.task import Task


class Heuristic(ABC):
    """Decides a task's hardware priority for its next iteration."""

    name: str = "abstract"

    @abstractmethod
    def decide(
        self,
        detector: "LoadImbalanceDetector",
        task: "Task",
        stats: "HPCTaskStats",
    ) -> Optional[int]:
        """Return the new hardware priority, or None to keep the current
        one.  Called at each iteration boundary of ``task``."""

    @staticmethod
    def _target_from_util(
        detector: "LoadImbalanceDetector",
        util_pct: float,
    ) -> Optional[int]:
        """Apply the LOW/HIGH utilization bands to ``util_pct``.

        Returns the band's priority, or ``None`` when the utilization
        sits in the hysteresis gap and the current priority should be
        held.  Both edges are inclusive.
        """
        if util_pct >= detector._high_util:
            return detector._max_prio
        if util_pct <= detector._low_util:
            return detector._min_prio
        return None


class UniformHeuristic(Heuristic):
    """Global-utilization bands: right for constant applications."""

    name = "uniform"

    def decide(self, detector, task, stats) -> Optional[int]:
        return self._target_from_util(detector, stats.global_util * 100.0)


class AdaptiveHeuristic(Heuristic):
    """Recency-weighted utilization ``G*Ug(i-1) + L*Ul(i)``.

    ``Ug(i-1)`` is the global utilization *up to the previous
    iteration*, i.e. excluding the one that just closed, matching the
    paper's formula.
    """

    name = "adaptive"

    def decide(self, detector, task, stats) -> Optional[int]:
        return self._target_from_util(
            detector, self.utilization(detector, stats) * 100.0
        )

    @staticmethod
    def utilization(
        detector: "LoadImbalanceDetector", stats: "HPCTaskStats"
    ) -> float:
        """The paper's blend ``U = G*Ug(i-1) + L*Ul(i)`` (0..1).

        ``Ug(i-1)`` is the duration-unweighted mean of every closed
        iteration but the newest; with no older history it falls back
        to the last utilization (or 0 before any iteration).
        """
        last = stats.last_util if stats.last_util is not None else 0.0
        if stats.iterations <= 1:
            prev_global = last
        else:
            older = stats.history[:-1]
            prev_global = sum(older) / len(older)
        return detector._adaptive_g * prev_global + detector._adaptive_l * last


class HybridHeuristic(Heuristic):
    """The paper's future-work ask (§VI): one heuristic for both
    constant and dynamic applications.

    Strategy: distinguish *level shifts* (real behaviour changes) from
    *noise* (one-off blips) using sample agreement:

    * the two newest utilizations **agree** (within ``volatility``):
      that is a consistent signal — trust their mean, reacting as fast
      as Adaptive whether the application is constant or just changed;
    * they **disagree**: the newest sample may be noise — decide on the
      window median instead, so a single noisy iteration (OS noise, a
      stray message burst) cannot flip the priority.  This is exactly
      Adaptive's over-reaction failure mode on MetBench (paper
      Fig. 3d), which Hybrid avoids at the cost of confirming real
      changes one iteration later.

    Tunables: ``window`` (samples for the damped median) and
    ``volatility`` (utilization agreement threshold, 0..1).
    """

    name = "hybrid"

    def __init__(self, window: int = 4, volatility: float = 0.15) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self.volatility = volatility

    def decide(self, detector, task, stats) -> Optional[int]:
        recent = stats.history[-self.window:]
        if not recent:
            return None
        if len(recent) == 1:
            util = recent[0]
        elif abs(recent[-1] - recent[-2]) <= self.volatility:
            util = (recent[-1] + recent[-2]) / 2.0  # consistent signal
        else:
            util = sorted(recent)[len(recent) // 2]  # damped median
        return self._target_from_util(detector, util * 100.0)
