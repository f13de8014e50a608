"""The Load Imbalance Detector (paper §IV-B).

MPI tasks alternate compute phases (runnable) and wait phases (blocked
on a message or barrier); one *iteration* is a compute phase plus the
wait phase that ends it (paper Fig. 2).  While a task runs, the kernel
accumulates its execution time; when it wakes from an MPI wait the
iteration closes and the detector computes

* the last-iteration utilization  ``Ul(i) = tR / (tR + tW)``  and
* the global utilization          ``Ug    = sum(tR) / sum(ti)``,

then asks the configured heuristic for the task's hardware priority for
the next iteration and applies it through the mechanism — *before* the
new iteration starts, which is what lets a constant application be
balanced after a single observed iteration.

The detector learns from history: iteration ``i`` is assumed
representative of ``i+1``.  If the guess is wrong the imbalance shows up
in the next iteration's statistics and is corrected then (paper §IV-B).

All sampling is wakeup-driven: the detector observes iterations from
inside the MPI-wait wake events themselves and owns no periodic
sampling timer, so there is no detector event to skip; the balance
fires the kernel does skip (DESIGN §12) are no-ops that never feed
these statistics.

**Stable state.**  "If the heuristic is able to balance the
application, i.e., to find a stable state, the Load Imbalance Detector
only checks whether the application maintains the same behavior,
without changing the priority of each task" (paper §IV-B).  The
detector runs a three-state machine:

* **ADJUSTING** — decisions active.  A *round* completes when every
  task has closed an iteration; if the round applied any priority
  change, the next round is observation-only (the change's effect must
  be measured before acting again — acting on utilizations measured
  under the *old* priorities is what causes oscillation); if the round
  changed nothing, the application is already stable and freezes.
* **OBSERVING** — one full round with no decisions; then freeze, taking
  each task's fresh utilization as its stable-state reference.
* **FROZEN** — priorities held.  A task deviating from its reference by
  more than ``hpcsched/rebalance_delta`` points signals a behaviour
  change: thaw, discard the now-stale history (keeping the revealing
  iteration) and re-balance — one or two iterations, as the paper
  observes on MetBenchVar.

The freeze is essential, not cosmetic: after balancing, *every* task
runs at high utilization (the de-prioritized ones because they were
slowed!), so a per-task band heuristic without hysteresis would promote
the formerly-idle tasks and destroy the balance it just built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.hpcsched.mechanism import POWER5Mechanism, PriorityMechanism

if TYPE_CHECKING:  # pragma: no cover
    from repro.hpcsched.heuristics import Heuristic
    from repro.kernel.core_sched import Kernel
    from repro.kernel.task import Task


@dataclass
class HPCTaskStats:
    """Per-task iteration statistics kept by the detector."""

    pid: int
    #: Wall-clock start of the current iteration.
    iter_start: float = 0.0
    #: ``sum_exec_runtime`` snapshot at iteration start.
    run_snapshot: float = 0.0
    #: Utilization of the last *closed* iteration (0..1); None before
    #: the first iteration completes.
    last_util: Optional[float] = None
    #: Running/wall time of the last closed iteration (for history
    #: resets on behaviour changes).
    last_tr: float = 0.0
    last_ti: float = 0.0
    #: Accumulated running time over all closed iterations.
    total_run: float = 0.0
    #: Accumulated wall time over all closed iterations.
    total_time: float = 0.0
    iterations: int = 0
    #: History of per-iteration utilizations (for analysis/figures).
    history: List[float] = field(default_factory=list)

    @property
    def global_util(self) -> float:
        """``Ug = sum(tR) / sum(ti)`` over the task's whole history."""
        return self.total_run / self.total_time if self.total_time > 0 else 0.0

    def close_iteration(self, now: float, run_now: float) -> Optional[float]:
        """Close the iteration at ``now``; returns its utilization."""
        ti = now - self.iter_start
        if ti <= 0:
            return None
        tr = max(0.0, run_now - self.run_snapshot)
        if tr > ti:
            # Accounting jitter can charge marginally more run time than
            # wall time elapsed.  Clamp *tr itself* — not just the ratio —
            # so the accumulated ``total_run`` stays consistent with the
            # per-iteration clamp and ``global_util`` (Ug) cannot exceed 1.
            tr = ti
        util = tr / ti
        self.last_util = util
        self.last_tr = tr
        self.last_ti = ti
        self.total_run += tr
        self.total_time += ti
        self.iterations += 1
        self.history.append(util)
        self.iter_start = now
        self.run_snapshot = run_now
        return util

    def reset_history(self) -> None:
        """Forget everything but the just-closed iteration.

        Used on behaviour changes: the accumulated global utilization
        describes the *old* behaviour and would take many iterations to
        drift across the decision bands, so the detector restarts the
        history from the iteration that revealed the change.
        """
        if self.last_util is None:
            return
        self.history = [self.last_util]
        self.total_run = self.last_tr
        self.total_time = self.last_ti
        self.iterations = 1


class LoadImbalanceDetector:
    """Tracks the HPC application's iterations and drives the heuristic."""

    def __init__(
        self,
        kernel: "Kernel",
        heuristic: "Heuristic",
        mechanism: Optional[PriorityMechanism] = None,
    ) -> None:
        self.kernel = kernel
        self.heuristic = heuristic
        self.mechanism = mechanism or POWER5Mechanism()
        self.stats: Dict[int, HPCTaskStats] = {}
        #: Total priority changes applied (for experiments/ablations).
        self.priority_changes = 0
        #: Number of behaviour changes detected (thaw + history reset).
        self.behaviour_changes = 0
        #: Stable-state machine: "adjusting" | "observing" | "frozen".
        self.state = "adjusting"
        self._freeze_ref: Dict[int, float] = {}
        #: Tasks that closed an iteration in the current round.
        self._round_closed: set = set()
        self._round_changed = False
        kernel.tunables.subscribe(self._refresh_tunable_cache)

    def _refresh_tunable_cache(self) -> None:
        """Cache the knobs consulted on every iteration close (and by
        the heuristics' decide())."""
        get = self.kernel.tunables.get
        self._min_iter_time = get("hpcsched/min_iter_time")
        self._rebalance_delta = get("hpcsched/rebalance_delta")
        self._balance_spread = get("hpcsched/balance_spread")
        self._min_prio = get("hpcsched/min_prio")
        self._max_prio = get("hpcsched/max_prio")
        self._high_util = get("hpcsched/high_util")
        self._low_util = get("hpcsched/low_util")
        self._prio_step_mode = get("hpcsched/prio_step_mode")
        self._adaptive_g = get("hpcsched/adaptive_g")
        self._adaptive_l = get("hpcsched/adaptive_l")

    # ------------------------------------------------------------------
    # Task registry (driven by the HPC scheduling class)
    # ------------------------------------------------------------------
    def task_added(self, task: "Task") -> None:
        """Start tracking a task that entered the HPC class; its
        hardware priority is normalized to the base level."""
        now = self.kernel.now
        st = HPCTaskStats(pid=task.pid)
        st.iter_start = now
        st.run_snapshot = task.sum_exec_runtime
        self.stats[task.pid] = st
        self.state = "adjusting"
        # Thaw-via-task-arrival: stale stable-state references must not
        # survive into the next freeze (the membership changed, so the
        # old per-task references describe a different application).
        self._freeze_ref.clear()
        self._round_closed.clear()
        self._round_changed = False
        base = self._min_prio
        if task.hw_priority != base:
            self._apply(task, base)

    def task_removed(self, task: "Task") -> None:
        """Forget a task that exited or left the HPC class."""
        self.stats.pop(task.pid, None)
        self._round_closed.discard(task.pid)
        self._freeze_ref.pop(task.pid, None)

    # ------------------------------------------------------------------
    # Iteration tracking
    # ------------------------------------------------------------------
    def on_wait_wakeup(self, task: "Task") -> None:
        """The task woke from an MPI wait: iteration boundary."""
        st = self.stats.get(task.pid)
        if st is None:
            return
        now = self.kernel.now
        if now - st.iter_start < self._min_iter_time:
            return  # spurious/short wakeup; fold into the open iteration
        util = st.close_iteration(now, task.sum_exec_runtime)
        if util is None:
            return
        if self.kernel.oracles is not None:
            self.kernel.oracles.on_iteration(task, util)
        if self.kernel.trace is not None:
            self.kernel._trace(
                task, "iteration", index=st.iterations, util=util
            )

        if self.state == "frozen":
            if not self._behaviour_changed(task.pid, util):
                return  # stable state: hold every priority
            self._thaw()

        if self.state in ("adjusting", "observing"):
            new_prio = self.heuristic.decide(self, task, st)
            current = self.mechanism.read(task)
            if new_prio is not None and new_prio != current:
                # While observing (a change's effect is being measured),
                # only *downward* corrections apply: de-prioritizing a
                # low-utilization task is always safe, whereas a raise
                # may react to the artificial utilization of a task that
                # was just slowed down by its sibling's boost.
                if self.state == "adjusting" or new_prio < current:
                    self._apply(task, new_prio)
                    self._round_changed = True
        self._round_closed.add(task.pid)
        self._maybe_advance_round()

    # ------------------------------------------------------------------
    # Stable-state machinery
    # ------------------------------------------------------------------
    def _maybe_advance_round(self) -> None:
        """A round = every task closed one iteration.  On completion:
        changes applied -> measure their effect for one round before
        acting again; nothing changed -> the application is stable."""
        if self.state == "frozen" or not self.stats:
            return
        if not all(pid in self._round_closed for pid in self.stats):
            return
        if self._round_changed:
            # changes applied this round (initial adjustments, or safe
            # downward corrections while observing): measure their
            # effect for one more full round before freezing.
            self.state = "observing"
        else:
            self._freeze()
        self._round_closed.clear()
        self._round_changed = False

    def _freeze(self) -> None:
        self.state = "frozen"
        self._freeze_ref = {
            pid: st.last_util
            for pid, st in self.stats.items()
            if st.last_util is not None
        }

    def _behaviour_changed(self, pid: int, util: float) -> bool:
        ref = self._freeze_ref.get(pid)
        if ref is None:
            return False
        return abs(util - ref) * 100.0 > self._rebalance_delta

    def _thaw(self) -> None:
        """Leave the stable state: the history describes old behaviour."""
        self.state = "adjusting"
        self.behaviour_changes += 1
        self._freeze_ref.clear()
        for st in self.stats.values():
            st.reset_history()
        self._round_closed.clear()
        self._round_changed = False

    @property
    def frozen(self) -> bool:
        """Whether the detector sits in the stable (frozen) state."""
        return self.state == "frozen"

    # ------------------------------------------------------------------
    # Application-level views (analysis helpers)
    # ------------------------------------------------------------------
    def last_utils(self) -> List[float]:
        """Last-iteration utilization of every tracked task that has
        closed at least one iteration."""
        return [
            st.last_util for st in self.stats.values() if st.last_util is not None
        ]

    def application_balanced(self) -> bool:
        """Whether the last-iteration utilizations sit within
        ``hpcsched/balance_spread`` points (analysis helper)."""
        utils = self.last_utils()
        if len(utils) < len(self.stats) or not utils:
            return False
        spread = (max(utils) - min(utils)) * 100.0
        return spread <= self._balance_spread

    # ------------------------------------------------------------------
    def _apply(self, task: "Task", priority: int) -> None:
        if self.kernel.oracles is not None:
            self.kernel.oracles.on_priority_apply(self, task, priority)
        self.mechanism.apply(self.kernel, task, priority)
        self.priority_changes += 1
