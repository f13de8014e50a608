"""The synth generator family: exact imbalance, conservation,
byte-determinism (property-based), placements and validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.synth import (
    DEFAULT_MEAN_WORK,
    PLACEMENTS,
    LocalBad,
    OffloadLatency,
    SyntheticConvergence,
    SyntheticScatter,
    _bad_order,
    _paired_order,
    _stick_break,
    calculate_work,
    unbalanced_sweep,
)


def realized_imbalance(loads):
    """The imbalance factor a work distribution realizes: max / mean."""
    return max(loads) / (sum(loads) / len(loads))

# ----------------------------------------------------------------------
# The acceptance grid: every feasible (I, N) cell must hit the target
# imbalance within 1%.  calculate_work is closed-form, so the realized
# error is actually float-precision; 1% is the ISSUE's acceptance bar.
# ----------------------------------------------------------------------

GRID = [
    (imbalance, n)
    for imbalance in (1.0, 1.5, 2.0, 4.0)
    for n in (4, 16, 64)
    if imbalance <= n
]


@pytest.mark.parametrize("imbalance,n", GRID)
def test_acceptance_grid_hits_target_within_one_percent(imbalance, n):
    loads = calculate_work(n, imbalance)
    assert realized_imbalance(loads) == pytest.approx(imbalance, rel=0.01)
    # And in fact to float precision:
    assert realized_imbalance(loads) == pytest.approx(imbalance, rel=1e-9)


# ----------------------------------------------------------------------
# Property-based coverage over the full feasible (I, N) space.
# ----------------------------------------------------------------------

#: (ranks, imbalance, mean_work, seed) with imbalance always feasible.
configs = st.integers(min_value=1, max_value=96).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.floats(min_value=1.0, max_value=float(n), allow_nan=False),
        st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
)


@settings(max_examples=80, deadline=None)
@given(cfg=configs)
def test_realized_imbalance_matches_the_target(cfg):
    n, imbalance, mean_work, seed = cfg
    loads = calculate_work(n, imbalance, mean_work=mean_work, seed=seed)
    assert len(loads) == n
    assert all(w >= 0.0 for w in loads)
    assert realized_imbalance(loads) == pytest.approx(imbalance, rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(cfg=configs)
def test_total_work_is_conserved(cfg):
    n, imbalance, mean_work, seed = cfg
    loads = calculate_work(n, imbalance, mean_work=mean_work, seed=seed)
    assert math.fsum(loads) == pytest.approx(n * mean_work, rel=1e-9)
    # No rank may exceed the worst rank's pinned share.
    assert max(loads) <= imbalance * mean_work * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(cfg=configs)
def test_generation_is_byte_deterministic_under_a_fixed_seed(cfg):
    n, imbalance, mean_work, seed = cfg
    a = calculate_work(n, imbalance, mean_work=mean_work, seed=seed)
    b = calculate_work(n, imbalance, mean_work=mean_work, seed=seed)
    # Byte-identical, not approximately equal.
    assert a == b


def test_distinct_seeds_draw_distinct_distributions():
    a = calculate_work(16, 2.0, seed=0)
    b = calculate_work(16, 2.0, seed=1)
    assert a != b
    # ... but both still hit the target exactly.
    for loads in (a, b):
        assert realized_imbalance(loads) == pytest.approx(2.0, rel=1e-9)


def test_explicit_rng_bypasses_the_seed():
    rng = np.random.default_rng(7)
    a = calculate_work(8, 3.0, rng=rng)
    b = calculate_work(8, 3.0, rng=np.random.default_rng(7))
    assert a == b


def test_degenerate_targets_are_exact():
    assert calculate_work(1, 1.0) == [DEFAULT_MEAN_WORK]
    assert calculate_work(5, 1.0, mean_work=0.25) == [0.25] * 5
    # I == N: one rank holds all the work.
    loads = calculate_work(4, 4.0, mean_work=2.0)
    assert max(loads) == pytest.approx(8.0)
    assert sorted(loads)[:-1] == pytest.approx([0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "ranks,imbalance,mean_work,match",
    [
        (0, 1.0, 1.0, "at least one rank"),
        (4, 0.5, 1.0, "infeasible"),
        (4, 4.5, 1.0, "infeasible"),
        (4, 2.0, 0.0, "mean_work"),
        (4, 2.0, -1.0, "mean_work"),
    ],
)
def test_calculate_work_rejects_bad_parameters(ranks, imbalance, mean_work, match):
    with pytest.raises(ValueError, match=match):
        calculate_work(ranks, imbalance, mean_work=mean_work)


def test_stick_break_falls_back_to_the_even_split():
    """An infeasibly tight cap exhausts rejection sampling; the even
    split (feasible by the caller's precondition) is the fallback."""

    class AlwaysBad:
        def uniform(self, lo, hi, size):
            # Every draw puts nearly everything in one gap.
            return np.full(size, lo + (hi - lo) * 1e-9)

    pieces = _stick_break(AlwaysBad(), 4, 1.0, 0.26)
    assert pieces == [0.25] * 4


# ----------------------------------------------------------------------
# Placements.
# ----------------------------------------------------------------------


def test_paired_order_couples_extremes_per_core():
    loads = [4.0, 1.0, 3.0, 2.0]
    out = _paired_order(loads)
    assert sorted(out) == sorted(loads)
    # Core 0 = (lightest, heaviest), core 1 = (2nd lightest, 2nd heaviest).
    assert out == [1.0, 4.0, 2.0, 3.0]


def test_paired_order_handles_odd_counts():
    out = _paired_order([3.0, 1.0, 2.0])
    assert out == [1.0, 3.0, 2.0]


def test_bad_order_couples_similar_loads():
    assert _bad_order([4.0, 1.0, 3.0, 2.0]) == [1.0, 2.0, 3.0, 4.0]


def test_scatter_placements_permute_the_same_distribution():
    base = calculate_work(8, 2.0)
    by_placement = {
        p: SyntheticScatter(imbalance=2.0, ranks=8, placement=p).loads
        for p in PLACEMENTS
    }
    for loads in by_placement.values():
        assert sorted(loads) == sorted(base)
    assert by_placement["shuffled"] == base
    assert by_placement["bad"] == sorted(base)


def test_local_bad_forces_the_pathological_placement():
    w = LocalBad(imbalance=2.0, ranks=8)
    assert w.placement == "bad"
    assert w.loads == sorted(w.loads)
    assert w.name == "local_bad"


# ----------------------------------------------------------------------
# Workload shapes.
# ----------------------------------------------------------------------


def test_scatter_topology_pins_one_rank_per_logical_cpu():
    assert SyntheticScatter(ranks=4).topology().n_cpus == 4
    assert SyntheticScatter(ranks=8).topology().n_cpus == 8
    assert SyntheticScatter(ranks=6).topology().n_cpus == 8  # rounds up
    assert SyntheticScatter(ranks=64).topology().n_cpus == 64


def test_scatter_rank_specs_are_pinned_in_order():
    w = SyntheticScatter(imbalance=2.0, ranks=8)
    specs = w.rank_specs()
    assert [s.name for s in specs] == [f"R{i}" for i in range(1, 9)]
    assert [s.cpu for s in specs] == list(range(8))


def test_scatter_rejects_bad_parameters():
    with pytest.raises(ValueError, match="two ranks"):
        SyntheticScatter(ranks=1)
    with pytest.raises(ValueError, match="iteration"):
        SyntheticScatter(ranks=4, iterations=0)
    with pytest.raises(ValueError, match="placement"):
        SyntheticScatter(ranks=4, placement="diagonal")
    with pytest.raises(ValueError, match="loads"):
        SyntheticScatter(ranks=4, loads=[1.0, 2.0])


def test_convergence_swaps_partners_at_the_step():
    w = SyntheticConvergence(ranks=4, imbalance=1.5, iterations=10, step_at=4)
    light, heavy = 0.5, 1.5
    assert w.loads == [light, heavy, light, heavy]
    for it in range(4):
        assert w.worker_load(0, it) == light
        assert w.worker_load(1, it) == heavy
    for it in range(4, 10):
        assert w.worker_load(0, it) == heavy
        assert w.worker_load(1, it) == light


def test_convergence_reverts_at_the_reversal():
    w = SyntheticConvergence(
        ranks=4, imbalance=1.5, iterations=12, step_at=4, revert_at=8
    )
    assert w.worker_load(0, 3) == 0.5
    assert w.worker_load(0, 5) == 1.5
    assert w.worker_load(0, 9) == 0.5  # back to the original
    # Per-pair totals are invariant across the step: the step changes
    # *who* is heavy, never how much total work exists.
    for it in (0, 5, 9):
        assert w.worker_load(0, it) + w.worker_load(1, it) == pytest.approx(2.0)


def test_convergence_rejects_bad_parameters():
    with pytest.raises(ValueError, match="even"):
        SyntheticConvergence(ranks=5)
    with pytest.raises(ValueError, match="infeasible"):
        SyntheticConvergence(ranks=4, imbalance=2.5)
    with pytest.raises(ValueError, match="step_at"):
        SyntheticConvergence(ranks=4, iterations=10, step_at=0)
    with pytest.raises(ValueError, match="step_at"):
        SyntheticConvergence(ranks=4, iterations=10, step_at=10)
    with pytest.raises(ValueError, match="revert_at"):
        SyntheticConvergence(ranks=4, iterations=10, step_at=5, revert_at=4)


def test_offload_pairs_origins_with_workers():
    w = OffloadLatency(ranks=4, iterations=2, messages=3)
    specs = w.rank_specs()
    assert len(specs) == 4
    assert [s.cpu for s in specs] == [0, 1, 2, 3]
    assert w.topology().n_cpus == 4
    with pytest.raises(ValueError, match="even"):
        OffloadLatency(ranks=3)
    with pytest.raises(ValueError, match="message"):
        OffloadLatency(ranks=4, messages=0)


# ----------------------------------------------------------------------
# The sweep grid.
# ----------------------------------------------------------------------


def test_unbalanced_sweep_drops_infeasible_cells():
    grid = unbalanced_sweep(imbalances=(1.0, 1.5, 2.0, 4.0), ranks=(2, 4, 16))
    cells = {(c["imbalance"], c["ranks"]) for c in grid}
    assert (4.0, 2) not in cells  # I > N is infeasible
    assert (2.0, 2) in cells
    assert (4.0, 4) in cells
    assert len(grid) == 11
    # Every surviving cell is feasible and usable by calculate_work.
    for c in grid:
        loads = calculate_work(c["ranks"], c["imbalance"])
        assert realized_imbalance(loads) == pytest.approx(
            c["imbalance"], rel=1e-9
        )


def test_default_sweep_matches_the_acceptance_grid():
    grid = unbalanced_sweep()
    assert len(grid) == len(GRID)
    assert {(c["imbalance"], c["ranks"]) for c in grid} == set(GRID)
