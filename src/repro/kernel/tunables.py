"""The kernel's and HPCSched's knobs as one frozen per-run record.

The paper exposes HPCSched's knobs (HIGH_UTIL, LOW_UTIL, MIN_PRIO,
MAX_PRIO, the Adaptive G/L weights) "through specific entries in the
sysfs filesystem" (§IV-B).  Here a run fixes them when it builds its
kernel: :class:`Tunables` holds one typed, range-checked field per knob,
a variant is built with keywords (``Tunables(adaptive_g=0.5,
adaptive_l=0.5)``), and nothing writes a field afterwards.  Consumers
copy the values they read per event into plain attributes once, at
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


class TunableError(KeyError):
    """Invalid tunable value."""


def _pos(v) -> bool:
    return v > 0


def _nonneg(v) -> bool:
    return v >= 0


def _frac(v) -> bool:
    return 0.0 <= v <= 1.0


def _pct(v) -> bool:
    return 0 <= v <= 100


def _prio(v) -> bool:
    return 0 <= v <= 7


_KINDS = {"float": float, "int": int}


def _knob(default, check):
    """A field with its default and range check."""
    return field(default=default, metadata={"check": check})


@dataclass(frozen=True)
class Tunables:
    """The knobs of one run (Linux 2.6.24-era kernel defaults, paper
    §IV-B HPCSched defaults).  Documented in ``docs/TUNABLES.md``."""

    #: CFS scheduling period: max time a runnable task waits (20 ms).
    sched_latency: float = _knob(0.020, _pos)
    #: CFS minimum preemption granularity.
    sched_min_granularity: float = _knob(0.004, _pos)
    #: CFS wakeup-preemption vruntime margin.
    sched_wakeup_granularity: float = _knob(0.001, _nonneg)
    #: Round-robin time slice for SCHED_RR (100 ms).
    sched_rr_timeslice: float = _knob(0.100, _pos)
    #: Direct cost charged per context switch.
    context_switch_cost: float = _knob(2e-6, _nonneg)
    #: Scheduler tick period (HZ=1000).
    tick_period: float = _knob(0.001, _pos)
    #: Utilization (%) at or above which a task is 'high utilization'.
    high_util: float = _knob(85.0, _pct)
    #: Utilization (%) at or below which a task is 'low utilization'.
    low_util: float = _knob(65.0, _pct)
    #: Lowest hardware priority HPCSched assigns (paper: 4).
    min_prio: int = _knob(4, _prio)
    #: Highest hardware priority HPCSched assigns (paper: 6).
    max_prio: int = _knob(6, _prio)
    #: Adaptive heuristic weight of the global utilization history.
    adaptive_g: float = _knob(0.10, _frac)
    #: Adaptive heuristic weight of the last iteration.
    adaptive_l: float = _knob(0.90, _frac)
    #: Round-robin slice of the HPC class.
    hpc_rr_timeslice: float = _knob(0.100, _pos)
    #: Per-task utilization change (points) that re-triggers balancing
    #: once the detector declared the application stable.
    rebalance_delta: float = _knob(12.0, _pct)
    #: Iterations shorter than this are ignored by the detector
    #: (filters spurious wakeups).
    min_iter_time: float = _knob(1e-4, _pos)

    def __post_init__(self) -> None:
        for f in fields(self):
            kind = _KINDS[f.type]
            value = getattr(self, f.name)
            if kind is float and isinstance(value, int):
                value = float(value)
                object.__setattr__(self, f.name, value)
            if not isinstance(value, kind):
                raise TunableError(
                    f"tunable {f.name!r} expects {kind.__name__}, "
                    f"got {type(value).__name__}"
                )
            if not f.metadata["check"](value):
                raise TunableError(f"value {value!r} rejected for tunable {f.name!r}")
        # Each bound is checked alone above; an inverted window would
        # pass that and silently swap the bands' meaning.
        if self.low_util > self.high_util:
            raise TunableError(
                f"low_util {self.low_util!r} above high_util {self.high_util!r}"
            )
        if self.min_prio > self.max_prio:
            raise TunableError(
                f"min_prio {self.min_prio!r} above max_prio {self.max_prio!r}"
            )


#: The record every kernel built without one shares.
DEFAULT_TUNABLES = Tunables()
