"""Decode-slot arbitration between the two SMT contexts (paper Table I).

With both contexts active at priorities ``pa`` and ``pb`` the core repeats
a window of ``R = 2**(|pa - pb| + 1)`` decode cycles: the lower-priority
context receives exactly 1 cycle of the window and the higher-priority
context the remaining ``R - 1``.  Equal priorities degenerate to the fair
1-of-2 split.

Special levels bypass the window arithmetic (paper §II-B):

* priority 0 — the context is **off**; the sibling runs in ST mode,
* priority 7 — the context runs in **ST mode** (the sibling must be off),
* priority 1 — the context is a **background** thread that only consumes
  resources left over by the foreground sibling; we model the background
  share as a small constant :data:`BACKGROUND_SHARE`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.power5.priorities import HWPriority, PriorityError, coerce_priority

_SHARE_EPS = 1e-12


class DecodeShareError(AssertionError):
    """The import-time check caught invalid decode arbitration output."""


#: Fraction of decode bandwidth a priority-1 ("background") context scavenges
#: when the foreground sibling is busy.  The architecture gives a background
#: thread only cycles the foreground cannot use; a few percent is a
#: representative figure for a busy foreground thread.
BACKGROUND_SHARE = 0.04

#: Paper Table I: priority difference -> (R, cycles for the favoured task,
#: cycles for the other task).
DECODE_TABLE: Dict[int, Tuple[int, int, int]] = {
    0: (2, 1, 1),
    1: (4, 3, 1),
    2: (8, 7, 1),
    3: (16, 15, 1),
    4: (32, 31, 1),
    5: (64, 63, 1),
}


def decode_window(prio_a: int, prio_b: int) -> int:
    """Length ``R`` of the decode window for two *normal* priorities.

    Only meaningful for priorities in 2..6 on both contexts (the window
    arithmetic applies to the "normal" prioritized-SMT regime).
    """
    pa, pb = coerce_priority(prio_a), coerce_priority(prio_b)
    _check_normal(pa)
    _check_normal(pb)
    return 2 ** (abs(int(pa) - int(pb)) + 1)


def decode_cycles(prio_a: int, prio_b: int) -> Tuple[int, int]:
    """Decode cycles per window granted to (task A, task B).

    Implements Table I exactly: the higher-priority task receives ``R - 1``
    cycles, the other receives 1; equal priorities split 1/1.
    """
    r = decode_window(prio_a, prio_b)
    if prio_a == prio_b:
        return (1, 1)
    if prio_a > prio_b:
        return (r - 1, 1)
    return (1, r - 1)


def _shares(pa: HWPriority, pb: HWPriority) -> Tuple[float, float]:
    if pa == HWPriority.THREAD_OFF and pb == HWPriority.THREAD_OFF:
        return (0.0, 0.0)
    if pa == HWPriority.THREAD_OFF:
        return (0.0, 1.0)
    if pb == HWPriority.THREAD_OFF:
        return (1.0, 0.0)

    if pa == HWPriority.VERY_HIGH or pb == HWPriority.VERY_HIGH:
        # ST mode: the architecture requires the sibling to be off; if a
        # caller models both as "on", the very-high thread still dominates
        # completely.
        if pa == pb:
            return (0.5, 0.5)
        return (1.0, 0.0) if pa == HWPriority.VERY_HIGH else (0.0, 1.0)

    if pa == HWPriority.VERY_LOW and pb == HWPriority.VERY_LOW:
        return (0.5, 0.5)
    if pa == HWPriority.VERY_LOW:
        return (BACKGROUND_SHARE, 1.0 - BACKGROUND_SHARE)
    if pb == HWPriority.VERY_LOW:
        return (1.0 - BACKGROUND_SHARE, BACKGROUND_SHARE)

    ca, cb = decode_cycles(pa, pb)
    r = ca + cb
    return (ca / r, cb / r)


def _check_shares(
    pa: HWPriority, pb: HWPriority, pair: Tuple[float, float]
) -> None:
    fa, fb = pair
    if not (0.0 <= fa <= 1.0 and 0.0 <= fb <= 1.0):
        raise DecodeShareError(
            f"decode shares {pair} for priorities ({int(pa)}, {int(pb)}) "
            "outside [0, 1]"
        )
    total = fa + fb
    expect = (
        0.0
        if pa == HWPriority.THREAD_OFF and pb == HWPriority.THREAD_OFF
        else 1.0
    )
    if abs(total - expect) > _SHARE_EPS:
        raise DecodeShareError(
            f"decode shares {pair} for priorities ({int(pa)}, {int(pb)}) "
            f"sum to {total}, expected {expect}"
        )


def _check_normal(prio: HWPriority) -> None:
    if prio in (HWPriority.THREAD_OFF, HWPriority.VERY_LOW, HWPriority.VERY_HIGH):
        raise PriorityError(
            f"priority {int(prio)} is special; Table I window arithmetic "
            "only covers the normal regime (2..6)"
        )


def decode_shares(prio_a: int, prio_b: int) -> Tuple[float, float]:
    """Fraction of decode bandwidth granted to each context.

    Handles the special levels 0, 1 and 7 as described in the module
    docstring, then falls back to the Table I window arithmetic — all
    precomputed in :data:`_SHARES_TABLE`.
    """
    pair = _SHARES_TABLE.get((prio_a, prio_b))
    if pair is None:
        # Non-integer or out-of-range input: coerce (which raises the
        # canonical PriorityError for invalid levels) and retry.
        pa, pb = coerce_priority(prio_a), coerce_priority(prio_b)
        pair = _SHARES_TABLE[(int(pa), int(pb))]
    return pair


def _build_shares_table() -> Dict[Tuple[int, int], Tuple[float, float]]:
    """The full 8x8 arbitration outcome, checked as it is built: every
    pair of shares must be valid fractions summing to 1 (0 when both
    contexts are off), and on the 25 normal pairs the Table I cycles
    must exactly fill the ``R``-cycle window.  A corrupted constant
    therefore fails the import."""
    table = {}
    for a in range(8):
        for b in range(8):
            pa, pb = HWPriority(a), HWPriority(b)
            pair = _shares(pa, pb)
            _check_shares(pa, pb, pair)
            if 2 <= a <= 6 and 2 <= b <= 6:
                cycles = decode_cycles(pa, pb)
                r = decode_window(pa, pb)
                if cycles[0] + cycles[1] != r:
                    raise DecodeShareError(
                        f"decode cycles {cycles} for priorities ({a}, {b}) "
                        f"do not fill the R={r} window"
                    )
            table[(a, b)] = pair
    return table


#: Priorities form a closed set (0..7), so the arbitration outcome is
#: computed and checked once at import; :func:`decode_shares` is a
#: single dict lookup.  ``HWPriority`` is an ``IntEnum``, so enum and
#: plain-int arguments hash identically.
_SHARES_TABLE = _build_shares_table()
