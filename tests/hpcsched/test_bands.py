"""The band arithmetic (repro.hpcsched.bands).

The kernel heuristics delegate to these pure functions, so these tests
pin their semantics without a kernel.
"""

import pytest

from repro.hpcsched.bands import (
    BandConfig,
    adaptive_mix,
    band_target,
    global_before_last,
)

CFG = BandConfig(low_util=65.0, high_util=85.0, min_prio=4, max_prio=6)


class TestBandTarget:
    def test_high_band_targets_max(self):
        assert band_target(92.0, current=4, cfg=CFG) == 6

    def test_low_band_targets_min(self):
        assert band_target(12.0, current=6, cfg=CFG) == 4

    def test_hysteresis_band_holds(self):
        for util in (65.1, 70.0, 80.0, 84.9):
            assert band_target(util, current=5, cfg=CFG) is None

    def test_band_edges_inclusive(self):
        assert band_target(85.0, current=4, cfg=CFG) == 6
        assert band_target(65.0, current=6, cfg=CFG) == 4

    def test_already_at_target(self):
        # The caller compares against current; the target is still
        # reported (the detector's "no change" check is theirs).
        assert band_target(95.0, current=6, cfg=CFG) == 6

    def test_step_mode_moves_one_level(self):
        step = BandConfig(
            low_util=65.0, high_util=85.0, min_prio=0, max_prio=7, step=True
        )
        assert band_target(95.0, current=3, cfg=step) == 4
        assert band_target(10.0, current=3, cfg=step) == 2
        assert band_target(95.0, current=7, cfg=step) == 7  # saturated

    def test_jump_mode_goes_straight_to_band_edge(self):
        wide = BandConfig(low_util=65.0, high_util=85.0, min_prio=0, max_prio=7)
        assert band_target(95.0, current=0, cfg=wide) == 7
        assert band_target(5.0, current=7, cfg=wide) == 0


class TestAdaptiveMix:
    def test_paper_formula(self):
        # U = G*Ug(i-1) + L*Ul(i) with the paper's defaults.
        assert adaptive_mix(0.1, 0.9, 0.5, 1.0) == pytest.approx(0.95)
        assert adaptive_mix(0.1, 0.9, 1.0, 0.0) == pytest.approx(0.1)

    def test_weights_are_explicit(self):
        assert adaptive_mix(0.5, 0.5, 0.2, 0.8) == pytest.approx(0.5)


class TestGlobalBeforeLast:
    def test_excludes_the_just_closed_iteration(self):
        assert global_before_last([1.0, 1.0, 0.0], 0.0) == pytest.approx(1.0)

    def test_single_sample_falls_back_to_last(self):
        assert global_before_last([0.7], 0.7) == pytest.approx(0.7)

    def test_empty_history(self):
        assert global_before_last([], None) == 0.0


def test_kernel_heuristics_share_the_band_code():
    """The kernel heuristics delegate to the same functions, so the
    tests above pin the kernel's band behaviour."""
    from repro.hpcsched import heuristics

    assert heuristics.band_target is band_target
    assert heuristics.adaptive_mix is adaptive_mix
    assert heuristics.global_before_last is global_before_last
