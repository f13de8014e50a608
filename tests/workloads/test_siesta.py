"""SIESTA workload tests: chunk generation, determinism, irregularity."""

import numpy as np
import pytest

from repro.workloads.siesta import DEFAULT_CHUNK_MEANS, Siesta


def test_chunk_shape():
    wl = Siesta(scf_steps=3, subiters=10)
    assert wl._chunks.shape == (4, 3, 10)


def test_deterministic_for_same_seed():
    a = Siesta(scf_steps=2, subiters=5, seed=7)
    b = Siesta(scf_steps=2, subiters=5, seed=7)
    assert np.allclose(a._chunks, b._chunks)


def test_different_seed_differs():
    a = Siesta(scf_steps=2, subiters=5, seed=7)
    b = Siesta(scf_steps=2, subiters=5, seed=8)
    assert not np.allclose(a._chunks, b._chunks)


def test_means_respected():
    wl = Siesta(scf_steps=30, subiters=100)
    for r, mean in enumerate(wl.chunk_means):
        assert wl._chunks[r].mean() == pytest.approx(mean, rel=0.15)


def test_rank_imbalance_ladder():
    wl = Siesta()
    totals = [float(wl._chunks[r].sum()) for r in range(4)]
    assert totals == sorted(totals, reverse=True)
    assert totals[0] / totals[3] > 3.0


def test_iterations_are_irregular():
    """Iteration i must not predict i+1 (the anti-heuristic property)."""
    wl = Siesta(scf_steps=4, subiters=50)
    light_rank = wl._chunks[1].ravel()
    ratios = light_rank[1:] / light_rank[:-1]
    assert ratios.std() > 0.2


def test_heavy_rank_is_steadier_than_light_ranks():
    wl = Siesta(scf_steps=4, subiters=100)
    cv = lambda x: x.std() / x.mean()  # noqa: E731
    assert cv(wl._chunks[0].ravel()) < cv(wl._chunks[1].ravel())


def test_sigma_scalar_broadcast():
    wl = Siesta(scf_steps=2, subiters=5, sigma=0.5)
    assert wl.sigma == [0.5, 0.5, 0.5, 0.5]


def test_sigma_list_padded():
    wl = Siesta(scf_steps=2, subiters=5, sigma=[0.1, 0.2])
    assert wl.sigma == [0.1, 0.2, 0.2, 0.2]


def test_chunk_accessor():
    wl = Siesta(scf_steps=2, subiters=5)
    assert wl.chunk(0, 0, 0) == float(wl._chunks[0, 0, 0])


def test_default_means_match_table6_ladder():
    # P1 dominates; ladder ratios roughly mirror the paper's %Comp ladder
    m = DEFAULT_CHUNK_MEANS
    assert m[0] / m[1] == pytest.approx(98.90 / 52.79, rel=0.15)
