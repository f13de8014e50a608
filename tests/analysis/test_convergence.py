"""Convergence-time metrics over fabricated and real traces."""

from dataclasses import dataclass

import pytest

from repro.analysis.convergence import (
    DEFAULT_EPS,
    EpochSample,
    auto_eps,
    convergence_metrics,
    epoch_samples,
    spread_floor,
)
from repro.trace.collector import TraceCollector


@dataclass
class _Task:
    pid: int
    name: str
    is_idle_task: bool = False


def make_trace(rounds, names=("A", "B")):
    """A trace with one ``iteration`` event per task per round.

    ``rounds`` is a list of per-round utilization tuples (one value per
    task); round ``r`` closes at time ``r + 1``.  The traced ``index``
    deliberately mimics the detector's reset-on-behaviour-change: it is
    pinned to 2 everywhere, so any fold relying on it would collapse.
    """
    trace = TraceCollector()
    tasks = [_Task(pid=i + 1, name=n) for i, n in enumerate(names)]
    for r, utils in enumerate(rounds):
        for task, util in zip(tasks, utils):
            trace.record(float(r + 1), task, "iteration", index=2, util=util)
    return trace


def spreads(samples):
    return [s.spread for s in samples]


# ----------------------------------------------------------------------
# Epoch folding.
# ----------------------------------------------------------------------


def test_epochs_fold_by_per_task_ordinal_not_traced_index():
    trace = make_trace([(0.5, 0.9), (0.6, 0.8), (0.7, 0.7)])
    samples = epoch_samples(trace)
    assert [s.index for s in samples] == [1, 2, 3]
    assert [s.time for s in samples] == [1.0, 2.0, 3.0]
    assert samples[0].utils == {"A": 0.5, "B": 0.9}
    assert spreads(samples) == pytest.approx([40.0, 20.0, 0.0])


def test_incomplete_epochs_are_dropped():
    trace = make_trace([(0.5, 0.9), (0.6, 0.8)])
    # A third event for A only: epoch 3 is incomplete (B never closed it).
    trace.record(3.0, _Task(pid=1, name="A"), "iteration", index=2, util=0.7)
    samples = epoch_samples(trace)
    assert [s.index for s in samples] == [1, 2]


def test_names_filter_restricts_the_fold():
    trace = make_trace([(0.5, 0.9), (0.6, 0.8)])
    # Noise from an untracked task must not truncate the series.
    trace.record(1.5, _Task(pid=9, name="noise"), "iteration", index=2, util=0.1)
    samples = epoch_samples(trace, names=["A", "B"])
    assert len(samples) == 2
    assert all(set(s.utils) == {"A", "B"} for s in samples)


def test_epoch_time_is_the_slowest_member():
    trace = TraceCollector()
    trace.record(1.0, _Task(pid=1, name="A"), "iteration", index=1, util=0.5)
    trace.record(1.7, _Task(pid=2, name="B"), "iteration", index=1, util=0.6)
    (sample,) = epoch_samples(trace)
    assert sample.time == 1.7


def test_empty_trace_yields_no_epochs():
    assert epoch_samples(TraceCollector()) == []


def test_epoch_sample_degenerate_properties():
    empty = EpochSample(index=1, time=0.0, utils={})
    assert empty.spread == 0.0
    assert empty.factor == 1.0
    zero = EpochSample(index=1, time=0.0, utils={"A": 0.0, "B": 0.0})
    assert zero.factor == 1.0


# ----------------------------------------------------------------------
# Convergence metrics.
# ----------------------------------------------------------------------


def sample(index, spread_points, time=None):
    """An epoch with the requested spread (two tasks around 0.5)."""
    half = spread_points / 200.0
    return EpochSample(
        index=index,
        time=float(index) if time is None else time,
        utils={"A": 0.5 - half, "B": 0.5 + half},
    )


def test_converges_at_the_first_epoch_that_stays_below_eps():
    samples = [sample(1, 40), sample(2, 30), sample(3, 5), sample(4, 6)]
    m = convergence_metrics(samples, eps=DEFAULT_EPS)
    assert m.converged
    assert m.epochs == 3
    assert m.sim_time == pytest.approx(3.0)  # from t=0 (application start)
    assert m.residual_spread == pytest.approx(5.5)
    assert m.epochs_observed == 4
    payload = m.to_payload()
    assert payload["converged"] is True and payload["epochs"] == 3


def test_a_single_lucky_epoch_does_not_count():
    """Fall *and stay* below: a dip followed by re-divergence converges
    only at the final settle point."""
    samples = [sample(1, 40), sample(2, 5), sample(3, 30), sample(4, 4)]
    m = convergence_metrics(samples, eps=DEFAULT_EPS)
    assert m.converged
    assert m.epochs == 4


def test_never_converging_reports_residuals_over_the_whole_tail():
    samples = [sample(1, 40), sample(2, 30)]
    m = convergence_metrics(samples, eps=DEFAULT_EPS)
    assert not m.converged
    assert m.epochs is None and m.sim_time is None
    assert m.residual_spread == pytest.approx(35.0)
    assert m.epochs_observed == 2


def test_after_index_anchors_the_disturbance():
    samples = [sample(1, 5), sample(2, 5), sample(3, 40), sample(4, 5)]
    m = convergence_metrics(samples, eps=DEFAULT_EPS, after_index=2)
    assert m.converged
    assert m.epochs == 2  # epochs 3 (spike) and 4 (settled)
    # sim_time is measured from the disturbance epoch's close (t=2).
    assert m.sim_time == pytest.approx(2.0)
    assert m.epochs_observed == 2


def test_until_index_excludes_a_later_disturbance():
    """A reversal spike outside the window must not mark the step
    window as unconverged."""
    samples = [sample(1, 40), sample(2, 5), sample(3, 5), sample(4, 40)]
    unbounded = convergence_metrics(samples, eps=DEFAULT_EPS)
    assert not unbounded.converged  # the spike at 4 breaks "stays below"
    windowed = convergence_metrics(samples, eps=DEFAULT_EPS, until_index=3)
    assert windowed.converged
    assert windowed.epochs == 2
    assert windowed.epochs_observed == 3


def test_empty_window_is_not_converged():
    m = convergence_metrics([sample(1, 5)], after_index=5)
    assert not m.converged
    assert m.epochs_observed == 0
    assert m.residual_spread == 0.0


def test_negative_eps_is_rejected():
    with pytest.raises(ValueError, match="eps"):
        convergence_metrics([sample(1, 5)], eps=-1.0)


# ----------------------------------------------------------------------
# Thresholds: the discrete-priority floor and the auto band.
# ----------------------------------------------------------------------


def test_spread_floor_is_the_windows_minimum():
    samples = [sample(1, 40), sample(2, 16), sample(3, 18), sample(4, 2)]
    assert spread_floor(samples) == pytest.approx(2.0)
    assert spread_floor(samples, after_index=1, until_index=3) == pytest.approx(16.0)
    assert spread_floor(samples, after_index=4) is None


def test_auto_eps_never_drops_below_the_detector_band():
    tight = [sample(1, 2), sample(2, 3)]
    assert auto_eps(tight) == DEFAULT_EPS
    loose = [sample(1, 16), sample(2, 18)]
    assert auto_eps(loose) == pytest.approx(16.5)  # floor + 0.5 slack
    assert auto_eps([]) == DEFAULT_EPS


# ----------------------------------------------------------------------
# A real run's kept trace.
# ----------------------------------------------------------------------


def test_convergence_metrics_read_a_real_run():
    from repro.experiments.common import run_experiment
    from repro.workloads.synth import SyntheticConvergence

    workload = SyntheticConvergence(ranks=4, iterations=6, step_at=3)
    result = run_experiment(
        workload, "adaptive", topology=workload.topology(), keep_trace=True
    )
    samples = epoch_samples(result.trace, names=list(result.tasks))
    # One complete epoch per workload iteration.
    assert len(samples) == 6
    m = convergence_metrics(
        samples, eps=auto_eps(samples, after_index=1, until_index=3), after_index=3
    )
    assert m.converged
    assert m.epochs_observed == 3
