"""The paper's priority-band arithmetic as pure functions.

The Uniform and Adaptive heuristics (paper §IV-B) are, stripped of
kernel plumbing, three small pieces of math:

* the LOW_UTIL/HIGH_UTIL **decision bands** mapping a utilization
  percentage to a priority target inside ``[min_prio, max_prio]``
  (with a hysteresis gap in between that returns "no change");
* the **adaptive mix** ``U = G*Ug(i-1) + L*Ul(i)`` blending the global
  utilization up to the previous iteration with the last iteration's;
* the **history mean** reconstructing ``Ug(i-1)`` from a utilization
  history.

The kernel-side :class:`~repro.hpcsched.heuristics.Heuristic` classes
driven by the Load Imbalance Detector use these functions, and
:mod:`repro.hpcsched` exports them.  Everything here is deliberately
free of kernel, task, and tunables types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class BandConfig:
    """The decision-band knobs, in the tunables' units.

    ``low_util``/``high_util`` are percentages (0..100); priorities are
    hardware-priority integers.  ``step`` selects the one-level-at-a-
    time mode (``hpcsched/prio_step_mode == "step"``) instead of
    jumping straight to the band target.
    """

    low_util: float
    high_util: float
    min_prio: int
    max_prio: int
    step: bool = False


def band_target(
    util_pct: float, current: int, cfg: BandConfig
) -> Optional[int]:
    """Apply the LOW/HIGH utilization bands to ``util_pct``.

    Returns the new priority, or ``None`` when the utilization sits in
    the hysteresis gap and the current priority should be held:

    * ``util_pct >= high_util`` — the consumer computes almost all the
      time; give it more resources (target ``max_prio``);
    * ``util_pct <= low_util`` — it mostly waits; it can afford to run
      slower (target ``min_prio``);
    * in between — leave the priority alone (prevents oscillation).
    """
    if util_pct >= cfg.high_util:
        target = cfg.max_prio
    elif util_pct <= cfg.low_util:
        target = cfg.min_prio
    else:
        return None

    if cfg.step and target != current:
        return current + (1 if target > current else -1)
    return target


def adaptive_mix(g: float, l: float, prev_global: float, last: float) -> float:
    """The paper's recency-weighted blend ``G*Ug(i-1) + L*Ul(i)``."""
    return g * prev_global + l * last


def global_before_last(
    history: Sequence[float], last: Optional[float]
) -> float:
    """``Ug(i-1)``: global utilization excluding the just-closed
    iteration.

    Reconstructed from the utilization history as a duration-unweighted
    mean of everything but the newest sample; with no older history it
    falls back to the last utilization (or 0 before any iteration).
    """
    if len(history) <= 1:
        return last if last is not None else 0.0
    older = history[:-1]
    return sum(older) / len(older)
