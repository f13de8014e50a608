"""Convergence-time metrics: how fast a balancer reacts, not just
where it ends up.

The Load Imbalance Detector traces one ``iteration`` event per task at
every iteration boundary (time, measured utilization).  This module
folds those events into *epochs* — epoch ``e`` collects every tracked
task's ``e``-th closed iteration, counted by each task's own event
*ordinal* (the detector's traced ``index`` resets on behaviour
changes, so it is not a global counter) — and derives, per epoch, the
detector's measured imbalance:

* **spread** — ``(max - min) * 100`` utilization points;
* **factor** — ``max(util) / mean(util)``, the classic imbalance
  factor over the epoch's utilizations.

From the epoch series, :func:`convergence_metrics` answers the
reaction-speed question: after a disturbance at epoch ``after_index``
(0 = application start; a :class:`~repro.workloads.synth
.SyntheticConvergence` step at iteration ``s`` lands at epoch ``s``),
how many epochs and simulated seconds pass until the measured
imbalance falls — *and stays* — below ``eps``, and what residual
imbalance remains in the converged tail.

Everything reads the existing trace output; no new instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.trace.collector import TraceCollector

#: Default convergence threshold in utilization points.
DEFAULT_EPS = 10.0


@dataclass(frozen=True)
class EpochSample:
    """One complete epoch: every tracked task's ``index``-th iteration."""

    index: int  # 1-based epoch ordinal (the e-th closed iteration)
    time: float  # simulated time the slowest member closed it
    utils: Dict[str, float] = field(default_factory=dict)

    @property
    def spread(self) -> float:
        """Utilization spread in points (the detector's balance test)."""
        if not self.utils:
            return 0.0
        vals = list(self.utils.values())
        return (max(vals) - min(vals)) * 100.0

    @property
    def factor(self) -> float:
        """Imbalance factor ``max / mean`` over the epoch utilizations."""
        vals = list(self.utils.values())
        if not vals or sum(vals) == 0:
            return 1.0
        return max(vals) / (sum(vals) / len(vals))


@dataclass(frozen=True)
class ConvergenceMetrics:
    """Reaction-speed summary of one (run, disturbance) pair."""

    #: Whether the imbalance fell and stayed below ``eps``.
    converged: bool
    #: Epochs after the disturbance until convergence (1 = the first
    #: post-disturbance epoch was already balanced); None if never.
    epochs: Optional[int]
    #: Simulated seconds from the disturbance epoch's close to the
    #: converging epoch's close; None if never converged.
    sim_time: Optional[float]
    #: Mean spread (points) over the converged tail — the steady-state
    #: residual imbalance.  Mean over *all* post-disturbance epochs
    #: when the run never converged.
    residual_spread: float
    #: Mean imbalance factor over the same tail.
    residual_factor: float
    #: Threshold used (utilization points).
    eps: float
    #: Epochs observed after the disturbance.
    epochs_observed: int

    def to_payload(self) -> Dict[str, object]:
        """JSON-able form (campaign result payloads, goldens)."""
        return {
            "converged": self.converged,
            "epochs": self.epochs,
            "sim_time": self.sim_time,
            "residual_spread": self.residual_spread,
            "residual_factor": self.residual_factor,
            "eps": self.eps,
            "epochs_observed": self.epochs_observed,
        }


def epoch_samples(
    trace: TraceCollector, names: Optional[Iterable[str]] = None
) -> List[EpochSample]:
    """Fold the trace's ``iteration`` events into complete epochs.

    Epoch ``e`` holds each task's ``e``-th iteration event in time
    order (the per-task *ordinal*; the traced ``index`` is unusable
    here because the detector resets it when a behaviour change
    discards history).  ``names`` restricts the fold to the given
    tasks (default: every task that traced at least one iteration).
    Only *complete* epochs — every member present — are returned, in
    order: a task that exits early (or folds a short wakeup into the
    previous iteration under ``min_iter_time``) truncates the series
    rather than skewing the spread.
    """
    events = trace.events_of_kind("iteration")
    wanted = set(names) if names is not None else None
    counts: Dict[str, int] = {}
    by_index: Dict[int, Dict[str, float]] = {}
    times: Dict[int, float] = {}
    for ev in events:
        if wanted is not None and ev.name not in wanted:
            continue
        ordinal = counts.get(ev.name, 0) + 1
        counts[ev.name] = ordinal
        by_index.setdefault(ordinal, {})[ev.name] = ev.info["util"]
        times[ordinal] = max(times.get(ordinal, 0.0), ev.time)
    if not counts:
        return []
    members = set(counts)
    return [
        EpochSample(index=i, time=times[i], utils=dict(utils))
        for i, utils in sorted(by_index.items())
        if set(utils) == members
    ]


def convergence_metrics(
    samples: Sequence[EpochSample],
    eps: float = DEFAULT_EPS,
    after_index: int = 0,
    until_index: Optional[int] = None,
) -> ConvergenceMetrics:
    """Time-to-threshold convergence over an epoch series.

    Considers epochs with ``after_index < index``, bounded by
    ``index <= until_index`` when given (so a later disturbance — e.g.
    a reversal step — does not pollute the window).  The run
    *converged* at the first epoch ``e*`` from which every remaining
    windowed epoch's spread is ``<= eps`` (fall **and stay** below — a
    single lucky epoch in an oscillating run does not count); at least
    one epoch must sit at or beyond ``e*``.  ``epochs`` counts
    post-disturbance epochs up to and including ``e*``; ``sim_time``
    measures from the disturbance epoch's close time (or 0.0 when
    ``after_index`` precedes the series, i.e. convergence from
    application start).
    """
    if not eps >= 0:  # also rejects NaN
        raise ValueError(f"eps must be non-negative, got {eps}")
    base_time = 0.0
    for s in samples:
        if s.index == after_index:
            base_time = s.time
            break
    tail = [
        s
        for s in samples
        if s.index > after_index
        and (until_index is None or s.index <= until_index)
    ]
    if not tail:
        return ConvergenceMetrics(
            converged=False,
            epochs=None,
            sim_time=None,
            residual_spread=0.0,
            residual_factor=1.0,
            eps=eps,
            epochs_observed=0,
        )
    # First position from which every spread stays <= eps.
    settle: Optional[int] = None
    for pos in range(len(tail)):
        if all(s.spread <= eps for s in tail[pos:]):
            settle = pos
            break
    if settle is None:
        return ConvergenceMetrics(
            converged=False,
            epochs=None,
            sim_time=None,
            residual_spread=sum(s.spread for s in tail) / len(tail),
            residual_factor=sum(s.factor for s in tail) / len(tail),
            eps=eps,
            epochs_observed=len(tail),
        )
    settled = tail[settle:]
    return ConvergenceMetrics(
        converged=True,
        epochs=settle + 1,
        sim_time=tail[settle].time - base_time,
        residual_spread=sum(s.spread for s in settled) / len(settled),
        residual_factor=sum(s.factor for s in settled) / len(settled),
        eps=eps,
        epochs_observed=len(tail),
    )


def spread_floor(
    samples: Sequence[EpochSample],
    after_index: int = 0,
    until_index: Optional[int] = None,
) -> Optional[float]:
    """The best (minimum) spread achieved in a window of epochs.

    The POWER5 priority mechanism is discrete, so a perfectly even
    utilization is generally unreachable; the floor over the pre-step
    steady state is the balance the mechanism *can* hold, and hence the
    natural convergence threshold for a step-change run ("recovered the
    pre-disturbance balance").  Returns ``None`` on an empty window.
    """
    window = [
        s.spread
        for s in samples
        if s.index > after_index
        and (until_index is None or s.index <= until_index)
    ]
    return min(window) if window else None


def auto_eps(
    samples: Sequence[EpochSample],
    after_index: int = 0,
    until_index: Optional[int] = None,
    slack: float = 0.5,
) -> float:
    """A threshold the run can provably re-reach: the window's
    :func:`spread_floor` plus ``slack`` points, never below
    :data:`DEFAULT_EPS` (the detector's own balance band)."""
    floor = spread_floor(samples, after_index=after_index, until_index=until_index)
    if floor is None:
        return DEFAULT_EPS
    return max(DEFAULT_EPS, floor + slack)
