"""Heuristic decision-rule tests (bands, weighting, custom records)."""

import pytest

from repro.hpcsched.detector import HPCTaskStats, LoadImbalanceDetector
from repro.hpcsched.heuristics import AdaptiveHeuristic, UniformHeuristic
from repro.hpcsched.mechanism import NullMechanism
from tests.conftest import pure_compute_program, tuned_kernel


def make_detector(kernel, heuristic):
    return LoadImbalanceDetector(kernel, heuristic, NullMechanism())


def tuned_detector(heuristic, **knobs):
    """A detector on a kernel built with a custom tunables record."""
    return make_detector(tuned_kernel(**knobs), heuristic)


def make_stats(history, durations=None):
    """Build stats from a list of per-iteration utilizations."""
    st = HPCTaskStats(pid=1)
    durations = durations or [1.0] * len(history)
    now = 0.0
    run = 0.0
    st.iter_start = 0.0
    for util, dur in zip(history, durations):
        now += dur
        run += util * dur
        st.close_iteration(now, run)
    return st


@pytest.fixture
def task(quiet_kernel):
    return quiet_kernel.create_task("t", pure_compute_program(1.0))


def test_uniform_high_band_targets_max(quiet_kernel, task):
    det = make_detector(quiet_kernel, UniformHeuristic())
    st = make_stats([0.95])
    assert det.heuristic.decide(det, task, st) == 6


def test_uniform_low_band_targets_min(quiet_kernel, task):
    det = make_detector(quiet_kernel, UniformHeuristic())
    st = make_stats([0.30])
    assert det.heuristic.decide(det, task, st) == 4


def test_uniform_middle_band_keeps(quiet_kernel, task):
    det = make_detector(quiet_kernel, UniformHeuristic())
    st = make_stats([0.75])
    assert det.heuristic.decide(det, task, st) is None


def test_uniform_uses_global_history(quiet_kernel, task):
    """A single busy iteration after a long idle history must not
    promote the task (global utilization still low)."""
    det = make_detector(quiet_kernel, UniformHeuristic())
    st = make_stats([0.2] * 10 + [1.0])
    assert st.global_util < 0.3
    assert det.heuristic.decide(det, task, st) == 4


def test_uniform_band_boundaries(quiet_kernel, task):
    det = make_detector(quiet_kernel, UniformHeuristic())
    assert det.heuristic.decide(det, task, make_stats([0.85])) == 6
    assert det.heuristic.decide(det, task, make_stats([0.65])) == 4
    assert det.heuristic.decide(det, task, make_stats([0.6501])) is None


def test_adaptive_weights_recent_history(quiet_kernel, task):
    """With L=0.9 a single busy iteration flips the decision."""
    det = make_detector(quiet_kernel, AdaptiveHeuristic())
    st = make_stats([0.2] * 10 + [1.0])
    # 0.9*1.0 + 0.1*0.2 = 0.92 >= HIGH
    assert det.heuristic.decide(det, task, st) == 6


def test_adaptive_g1_behaves_like_uniform_mean(task):
    det = tuned_detector(AdaptiveHeuristic(), adaptive_g=1.0, adaptive_l=0.0)
    st = make_stats([0.2] * 10 + [1.0])
    assert det.heuristic.decide(det, task, st) == 4


def test_adaptive_first_iteration_uses_last(quiet_kernel, task):
    det = make_detector(quiet_kernel, AdaptiveHeuristic())
    st = make_stats([0.95])
    assert det.heuristic.decide(det, task, st) == 6


def test_custom_bands_respected(task):
    det = tuned_detector(UniformHeuristic(), low_util=40.0, high_util=50.0)
    st = make_stats([0.6])
    assert det.heuristic.decide(det, task, st) == 6


def test_custom_priority_range(task):
    det = tuned_detector(UniformHeuristic(), min_prio=3, max_prio=5)
    assert det.heuristic.decide(det, task, make_stats([0.95])) == 5
    assert det.heuristic.decide(det, task, make_stats([0.2])) == 3


def test_heuristic_names():
    assert UniformHeuristic().name == "uniform"
    assert AdaptiveHeuristic().name == "adaptive"
