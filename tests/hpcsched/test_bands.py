"""The priority bands and the adaptive mix, through the heuristics.

``UniformHeuristic`` applies the LOW_UTIL/HIGH_UTIL bands to a task's
global utilization and ``AdaptiveHeuristic`` to ``U = G*Ug(i-1) +
L*Ul(i)``; both read the band edges, the priority window and G/L from
the kernel's ``Tunables`` record.
"""

import pytest

from repro.hpcsched.detector import HPCTaskStats, LoadImbalanceDetector
from repro.hpcsched.heuristics import AdaptiveHeuristic, UniformHeuristic
from repro.hpcsched.mechanism import NullMechanism
from tests.conftest import pure_compute_program, tuned_kernel


def stats_of(history):
    """Stats that closed one 1 s iteration per utilization in ``history``."""
    st = HPCTaskStats(pid=1)
    for i, util in enumerate(history, start=1):
        st.close_iteration(float(i), st.run_snapshot + util)
    return st


def detector(heuristic, **knobs):
    return LoadImbalanceDetector(tuned_kernel(**knobs), heuristic, NullMechanism())


def uniform(util_pct, current=4, **knobs):
    """Uniform's decision for a task whose one iteration ran
    ``util_pct`` percent busy, sitting at priority ``current``."""
    det = detector(UniformHeuristic(), **knobs)
    task = det.kernel.create_task("t", pure_compute_program(1.0))
    task.hw_priority = current
    return det.heuristic.decide(det, task, stats_of([util_pct / 100.0]))


def mix(history, **knobs):
    det = detector(AdaptiveHeuristic(), **knobs)
    return det.heuristic.utilization(det, stats_of(history))


class TestBandTarget:
    def test_high_band_targets_max(self):
        assert uniform(92.0, current=4) == 6

    def test_low_band_targets_min(self):
        assert uniform(12.0, current=6) == 4

    def test_hysteresis_band_holds(self):
        for util in (65.1, 70.0, 80.0, 84.9):
            assert uniform(util, current=5) is None

    def test_band_edges_inclusive(self):
        assert uniform(85.0, current=4) == 6
        assert uniform(65.0, current=6) == 4

    def test_already_at_target(self):
        # The target is still reported; the "no change" check is the
        # detector's.
        assert uniform(95.0, current=6) == 6

    def test_jump_mode_goes_straight_to_band_edge(self):
        wide = {"min_prio": 0, "max_prio": 7}
        assert uniform(95.0, current=0, **wide) == 7
        assert uniform(5.0, current=7, **wide) == 0


class TestAdaptiveMix:
    def test_paper_formula(self):
        # U = G*Ug(i-1) + L*Ul(i) with the paper's defaults.
        assert mix([0.5, 1.0]) == pytest.approx(0.95)
        assert mix([1.0, 0.0]) == pytest.approx(0.1)

    def test_weights_are_explicit(self):
        assert mix([0.2, 0.8], adaptive_g=0.5, adaptive_l=0.5) == pytest.approx(0.5)

    def test_mix_drives_the_decision(self):
        det = detector(AdaptiveHeuristic())
        task = det.kernel.create_task("t", pure_compute_program(1.0))
        assert det.heuristic.decide(det, task, stats_of([0.5, 1.0])) == 6
        assert det.heuristic.decide(det, task, stats_of([1.0, 0.0])) == 4


class TestGlobalBeforeLast:
    # With G=1, L=0 the mix is Ug(i-1) alone.
    ONLY_GLOBAL = {"adaptive_g": 1.0, "adaptive_l": 0.0}

    def test_excludes_the_just_closed_iteration(self):
        assert mix([1.0, 1.0, 0.0], **self.ONLY_GLOBAL) == pytest.approx(1.0)

    def test_single_sample_falls_back_to_last(self):
        assert mix([0.7], **self.ONLY_GLOBAL) == pytest.approx(0.7)

    def test_empty_history(self):
        assert mix([], **self.ONLY_GLOBAL) == 0.0
