"""Sysfs-like runtime tunable registry.

The paper exposes HPCSched's knobs (HIGH_UTIL, LOW_UTIL, MIN_PRIO,
MAX_PRIO, the Adaptive G/L weights) "through specific entries in the
sysfs filesystem" (§IV-B).  :class:`Tunables` plays that role for the
whole simulated kernel: a flat, typed, path-addressed key/value store
with range validation, so experiments tune the scheduler the same way a
user would on the real system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


class TunableError(KeyError):
    """Unknown tunable or invalid value."""


@dataclass
class _Entry:
    value: Any
    kind: type
    validate: Optional[Callable[[Any], bool]]
    doc: str


class Tunables:
    """Typed key/value registry addressed by sysfs-like paths.

    Hot-path consumers (the scheduler core, CFS, the HPC detector) do
    not call :meth:`get` per use — they cache values as plain attributes
    and register a refresh hook via :meth:`subscribe`, which fires after
    every successful :meth:`set`/:meth:`register`.  That keeps writes as
    flexible as sysfs while reads cost one attribute load.
    """

    #: Default entries shared copy-on-write across instances: almost no
    #: kernel ever *writes* a tunable, so cluster-scale construction
    #: (hundreds of kernels) reuses one frozen default table and only a
    #: first write pays for a private copy.
    _proto_entries: Optional[Dict[str, _Entry]] = None

    def __init__(self) -> None:
        self._subscribers: List[Callable[[], None]] = []
        if Tunables._proto_entries is None:
            self._entries: Dict[str, _Entry] = {}
            self._owns_entries = True
            self._register_defaults()
            Tunables._proto_entries = {
                path: _Entry(e.value, e.kind, e.validate, e.doc)
                for path, e in self._entries.items()
            }
        else:
            self._entries = Tunables._proto_entries
            self._owns_entries = False

    def _own_entries(self) -> None:
        """Detach from the shared default table before any write."""
        if not self._owns_entries:
            self._entries = {
                path: _Entry(e.value, e.kind, e.validate, e.doc)
                for path, e in self._entries.items()
            }
            self._owns_entries = True

    def subscribe(self, callback: Callable[[], None]) -> None:
        """Register a zero-argument hook invoked after every successful
        write, so consumers can refresh cached tunable values.  The hook
        is also invoked once immediately (subscribe == sync now).

        Hooks run *synchronously inside* :meth:`set`, before the writing
        event returns — the parked balance timers depend on this: a
        period change re-times them at the exact change instant
        (``LoadBalancer.retime``), so skipped fires before the write use
        the old interval and the first fire after it the new one,
        exactly like an armed timer reading the tunable at fire time."""
        self._subscribers.append(callback)
        callback()

    def _notify(self) -> None:
        for callback in self._subscribers:
            callback()

    def register(
        self,
        path: str,
        default: Any,
        kind: Optional[type] = None,
        validate: Optional[Callable[[Any], bool]] = None,
        doc: str = "",
    ) -> None:
        """Declare a tunable with its default value."""
        self._own_entries()
        self._entries[path] = _Entry(default, kind or type(default), validate, doc)
        if self._subscribers:
            self._notify()

    def get(self, path: str) -> Any:
        """Current value of the tunable at ``path``."""
        try:
            return self._entries[path].value
        except KeyError:
            raise TunableError(f"unknown tunable {path!r}") from None

    def set(self, path: str, value: Any) -> None:
        """Write a tunable, enforcing its type and range validator."""
        try:
            entry = self._entries[path]
        except KeyError:
            raise TunableError(f"unknown tunable {path!r}") from None
        if entry.kind is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, entry.kind):
            raise TunableError(
                f"tunable {path!r} expects {entry.kind.__name__}, "
                f"got {type(value).__name__}"
            )
        if entry.validate is not None and not entry.validate(value):
            raise TunableError(f"value {value!r} rejected for tunable {path!r}")
        if not self._owns_entries:
            self._own_entries()
            entry = self._entries[path]
        entry.value = value
        self._notify()

    def paths(self):
        """All registered tunable paths, sorted."""
        return sorted(self._entries)

    def describe(self, path: str) -> str:
        """Human-readable description of a tunable."""
        return self._entries[path].doc

    # ------------------------------------------------------------------
    def _register_defaults(self) -> None:
        pos = lambda v: v > 0  # noqa: E731
        nonneg = lambda v: v >= 0  # noqa: E731
        frac = lambda v: 0.0 <= v <= 1.0  # noqa: E731

        # Core / CFS knobs (Linux 2.6.24-era defaults).
        self.register(
            "kernel/sched_latency", 0.020, float, pos,
            "CFS scheduling period: max time a runnable task waits (20 ms).",
        )
        self.register(
            "kernel/sched_min_granularity", 0.004, float, pos,
            "CFS minimum preemption granularity.",
        )
        self.register(
            "kernel/sched_wakeup_granularity", 0.001, float, nonneg,
            "CFS wakeup-preemption vruntime margin.",
        )
        self.register(
            "kernel/sched_rr_timeslice", 0.100, float, pos,
            "Round-robin time slice for SCHED_RR (100 ms).",
        )
        self.register(
            "kernel/context_switch_cost", 2e-6, float, nonneg,
            "Direct cost charged per context switch.",
        )
        self.register(
            "kernel/tick_period", 0.001, float, pos,
            "Scheduler tick period (HZ=1000).",
        )
        self.register(
            "kernel/loadbalance_interval", 0.064, float, pos,
            "Periodic load-balance interval per CPU.",
        )

        # HPCSched knobs (paper §IV-B defaults).
        self.register(
            "hpcsched/high_util", 85.0, float, frac_pct := (lambda v: 0 <= v <= 100),
            "Utilization (%) above which a task is 'high utilization'.",
        )
        self.register(
            "hpcsched/low_util", 65.0, float, frac_pct,
            "Utilization (%) below which a task is 'low utilization'.",
        )
        self.register(
            "hpcsched/min_prio", 4, int, lambda v: 0 <= v <= 7,
            "Lowest hardware priority HPCSched assigns (paper: 4).",
        )
        self.register(
            "hpcsched/max_prio", 6, int, lambda v: 0 <= v <= 7,
            "Highest hardware priority HPCSched assigns (paper: 6).",
        )
        self.register(
            "hpcsched/adaptive_g", 0.10, float, frac,
            "Adaptive heuristic weight of the global utilization history.",
        )
        self.register(
            "hpcsched/adaptive_l", 0.90, float, frac,
            "Adaptive heuristic weight of the last iteration.",
        )
        self.register(
            "hpcsched/rr_timeslice", 0.100, float, pos,
            "Round-robin slice of the HPC class RR policy.",
        )
        self.register(
            "hpcsched/policy_mode", "rr", str, lambda v: v in ("rr", "fifo"),
            "HPC class queueing discipline (paper evaluates 'rr').",
        )
        self.register(
            "hpcsched/prio_step_mode", "jump", str, lambda v: v in ("jump", "step"),
            "Apply target priorities at once ('jump') or one level per "
            "iteration ('step').",
        )
        self.register(
            "hpcsched/balance_spread", 10.0, float, frac_pct,
            "Max utilization spread (percentage points) at which the "
            "application counts as balanced.",
        )
        self.register(
            "hpcsched/rebalance_delta", 12.0, float, frac_pct,
            "Per-task utilization change that re-triggers balancing once "
            "the detector declared the application stable.",
        )
        self.register(
            "hpcsched/min_iter_time", 1e-4, float, pos,
            "Iterations shorter than this are ignored by the detector "
            "(filters spurious wakeups).",
        )
