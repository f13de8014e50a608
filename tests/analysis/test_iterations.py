"""Iteration analytics: the paper's convergence claims, measured from
traces.

The detector emits an ``iteration`` trace event (index + utilization)
every time a task closes an iteration.  The helpers below turn that
stream into the quantities the paper argues with, and are the reference
computations of DESIGN claim A12:

* per-task iteration series (time, utilization),
* :func:`iterations_to_balance` — "the scheduler is able to detect the
  correct hardware priority quickly (in one or two iterations)" (§I),
* :func:`rebalance_latencies` — "after the switching ... the scheduler
  needs two more iterations to detect and correct the new load
  imbalance" (§V-B).
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import pytest

from repro.experiments import metbench, metbenchvar
from repro.trace.collector import TraceCollector


@dataclass(frozen=True)
class IterationSample:
    """One closed iteration of one task."""

    time: float
    index: int
    util: float


def iteration_series(
    trace: TraceCollector, names: Optional[Sequence[str]] = None
) -> Dict[str, List[IterationSample]]:
    """Per-task iteration samples, in time order."""
    wanted = set(names) if names is not None else None
    out: Dict[str, List[IterationSample]] = {}
    for ev in trace.events_of_kind("iteration"):
        if wanted is not None and ev.name not in wanted:
            continue
        out.setdefault(ev.name, []).append(
            IterationSample(ev.time, ev.info["index"], ev.info["util"])
        )
    return out


def balance_series(
    trace: TraceCollector, names: Optional[Sequence[str]] = None
) -> List[float]:
    """Utilization spread (max-min, in points) per completed round.

    Rounds are formed by aligning each task's i-th iteration; the spread
    of round i is the application's imbalance during it.
    """
    series = iteration_series(trace, names)
    if not series:
        return []
    rounds = min(len(s) for s in series.values())
    spreads = []
    for i in range(rounds):
        utils = [s[i].util for s in series.values()]
        spreads.append((max(utils) - min(utils)) * 100.0)
    return spreads


def iterations_to_balance(
    trace: TraceCollector,
    names: Optional[Sequence[str]] = None,
    threshold: float = 10.0,
) -> Optional[int]:
    """1-based index of the first round whose utilization spread is
    below ``threshold`` points, or None if never balanced."""
    for i, spread in enumerate(balance_series(trace, names)):
        if spread <= threshold:
            return i + 1
    return None


def rebalance_latencies(
    trace: TraceCollector,
    names: Optional[Sequence[str]] = None,
    threshold: float = 10.0,
    broken: float = 30.0,
) -> List[int]:
    """Rounds needed to return below ``threshold`` after each excursion
    above ``broken`` (a behaviour change).  One entry per excursion that
    was eventually corrected."""
    spreads = balance_series(trace, names)
    latencies: List[int] = []
    excursion_start: Optional[int] = None
    for i, spread in enumerate(spreads):
        if excursion_start is None:
            if spread >= broken:
                excursion_start = i
        elif spread <= threshold:
            latencies.append(i - excursion_start)
            excursion_start = None
    return latencies


@pytest.fixture(scope="module")
def metbench_run():
    return metbench.run_one("uniform", iterations=8, keep_trace=True)


@pytest.fixture(scope="module")
def metbenchvar_run():
    return metbenchvar.run_one("uniform", iterations=12, k=4, keep_trace=True)


WORKERS = ["P1", "P2", "P3", "P4"]


def test_iteration_series_structure(metbench_run):
    series = iteration_series(metbench_run.trace, WORKERS)
    assert set(series) == set(WORKERS)
    for samples in series.values():
        assert len(samples) == 8
        assert [s.index for s in samples] == list(range(1, 9))
        times = [s.time for s in samples]
        assert times == sorted(times)
        assert all(0.0 <= s.util <= 1.0 for s in samples)


def test_balance_series_shrinks(metbench_run):
    spreads = balance_series(metbench_run.trace, WORKERS)
    assert spreads[0] > 60.0  # iteration 1: the raw imbalance
    assert spreads[-1] < 10.0  # balanced thereafter


def test_paper_claim_balanced_in_one_or_two_iterations(metbench_run):
    """§I: 'the scheduler is able to detect the correct hardware
    priority quickly (in one or two iterations)' — measured."""
    n = iterations_to_balance(metbench_run.trace, WORKERS)
    assert n is not None and n <= 2


def test_paper_claim_rebalance_within_a_few_iterations(metbenchvar_run):
    """§V-B: after each reversal the scheduler needs ~2 iterations to
    detect and correct the new imbalance — measured."""
    lats = rebalance_latencies(metbenchvar_run.trace, WORKERS)
    assert lats, "no excursions detected (k too large?)"
    assert all(lat <= 4 for lat in lats)
    assert min(lats) <= 3


def test_baseline_never_balances():
    base = metbench.run_one("cfs", iterations=5, keep_trace=True)
    assert iterations_to_balance(base.trace, WORKERS) is None


def test_empty_trace():
    from repro.trace.collector import TraceCollector

    trace = TraceCollector()
    assert balance_series(trace) == []
    assert iterations_to_balance(trace) is None
    assert rebalance_latencies(trace) == []
