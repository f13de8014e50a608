"""Workload calibration: back-solving sizes from published numbers.

The paper reports, per workload, the baseline execution time and the
per-process %Comp.  Given a performance profile, the functions below
invert the simulator's timing model to recover the work parameters —
the same arithmetic used to derive the repository's default workload
constants (see EXPERIMENTS.md, "Calibration provenance").  Keeping it as
code makes the provenance executable: the tests assert that calibrating
against the paper's Table III/Table V rows reproduces the shipped
defaults.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import pytest

from repro.power5.perfmodel import CPU_BOUND, MEM_BOUND, MIXED, PerfProfile
from repro.workloads.btmz import DEFAULT_ZONE_WORKS
from repro.workloads.metbench import DEFAULT_BIG_LOAD, DEFAULT_SMALL_LOAD


@dataclass(frozen=True)
class MetBenchCalibration:
    """Derived MetBench parameters."""

    small_load: float
    big_load: float
    iteration_time: float
    #: Speed ratio the hardware priorities must deliver for balance.
    required_balance_ratio: float
    #: Whether the profile's ±(max-min) window can deliver it.
    balanceable: bool


def calibrate_metbench(
    baseline_exec: float = 81.78,
    iterations: int = 45,
    small_pct_comp: float = 25.34,
    profile: PerfProfile = CPU_BOUND,
    dprio_window: int = 2,
) -> MetBenchCalibration:
    """Solve MetBench's loads from the paper's baseline row.

    Model: both workers start computing together at SMT-equal speed 1;
    the small worker finishes after ``W_s`` seconds (its utilization is
    therefore ``W_s / T``); the big worker then runs alone at the
    profile's ST speed for the remainder::

        T  = W_s + (W_b - W_s) / st_speedup
        W_s = pct_comp * T
    """
    t_iter = baseline_exec / iterations
    w_small = (small_pct_comp / 100.0) * t_iter
    w_big = w_small + profile.st_speedup * (t_iter - w_small)
    ratio = w_big / w_small
    achievable = (
        profile.table_speed(dprio_window) / profile.table_speed(-dprio_window)
    )
    return MetBenchCalibration(
        small_load=w_small,
        big_load=w_big,
        iteration_time=t_iter,
        required_balance_ratio=ratio,
        balanceable=achievable >= ratio * 0.98,
    )


def calibrate_btmz_zones(
    baseline_exec: float = 94.97,
    iterations: int = 200,
    pct_comps: Sequence[float] = (17.63, 29.85, 66.09, 99.85),
    profile: PerfProfile = MIXED,
) -> List[float]:
    """Approximate per-rank zone works from the paper's baseline ladder.

    Ranks pair (0,1) and (2,3) on the two SMT cores.  A rank computes at
    speed 1 while its sibling also computes and at the ST speed once the
    sibling has finished; with utilizations ``u`` (fraction of the
    iteration spent computing) and iteration time ``T``::

        W = T * (min(u, u_sib) + max(0, u - u_sib) * st_speedup)

    This ignores sub-iteration phase alignment, so expect the result to
    match empirically-tuned constants to ~15%, not exactly.
    """
    t_iter = baseline_exec / iterations
    utils = [p / 100.0 for p in pct_comps]
    works = []
    for i, u in enumerate(utils):
        sib = utils[i ^ 1]
        overlapped = min(u, sib)
        solo = max(0.0, u - sib)
        works.append(t_iter * (overlapped + solo * profile.st_speedup))
    return works


def required_priority_window(
    work_ratio: float, profile: PerfProfile
) -> Tuple[int, bool]:
    """Smallest symmetric priority window ±d whose speed ratio covers a
    given work ratio; second element is False if even the profile's
    full table cannot balance it (the paper's 'oscillation' regime)."""
    if work_ratio <= 0:
        raise ValueError("work_ratio must be positive")
    if work_ratio < 1:
        work_ratio = 1.0 / work_ratio
    max_d = max(profile.dprio_speed) if profile.dprio_speed else 0
    for d in range(0, max_d + 1):
        ratio = profile.table_speed(d) / profile.table_speed(-d)
        if ratio >= work_ratio:
            return d, True
    return max_d, False


def test_metbench_defaults_come_from_table3():
    cal = calibrate_metbench()
    assert cal.small_load == pytest.approx(DEFAULT_SMALL_LOAD, rel=0.005)
    assert cal.big_load == pytest.approx(DEFAULT_BIG_LOAD, rel=0.005)
    assert cal.iteration_time == pytest.approx(81.78 / 45)


def test_metbench_is_balanceable_within_pm2():
    cal = calibrate_metbench()
    assert cal.balanceable
    assert cal.required_balance_ratio == pytest.approx(
        DEFAULT_BIG_LOAD / DEFAULT_SMALL_LOAD, rel=0.01
    )


def test_metbench_mem_bound_would_not_balance():
    cal = calibrate_metbench(profile=MEM_BOUND)
    assert not cal.balanceable  # priorities barely shift mem-bound speed


def test_btmz_zone_calibration_close_to_defaults():
    """The heavy (pace-setting) zones calibrate tightly; the light
    zones carry the documented sub-iteration alignment error."""
    works = calibrate_btmz_zones()
    for calibrated, shipped in zip(works[2:], DEFAULT_ZONE_WORKS[2:]):
        assert calibrated == pytest.approx(shipped, rel=0.05)
    for calibrated, shipped in zip(works[:2], DEFAULT_ZONE_WORKS[:2]):
        assert calibrated == pytest.approx(shipped, rel=0.35)


def test_btmz_heaviest_zone_tight():
    works = calibrate_btmz_zones()
    assert works[3] == pytest.approx(DEFAULT_ZONE_WORKS[3], rel=0.02)


def test_required_priority_window():
    d, ok = required_priority_window(1.0, CPU_BOUND)
    assert (d, ok) == (0, True)
    d, ok = required_priority_window(7.0, CPU_BOUND)
    assert ok and d == 2  # MetBench's ~7x needs exactly the paper's ±2
    d, ok = required_priority_window(0.145, CPU_BOUND)  # inverse ratio
    assert ok and d == 2
    d, ok = required_priority_window(100.0, CPU_BOUND)
    assert not ok  # beyond any window: the oscillation regime


def test_required_priority_window_validation():
    with pytest.raises(ValueError):
        required_priority_window(0.0, CPU_BOUND)
