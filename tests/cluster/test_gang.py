"""Gang-placement strategy tests."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.gang import Slot, block_placement, gang_placement


def test_block_placement_contiguous():
    p = block_placement(8, 2, 4)
    assert p.slots[0] == Slot(0, 0)
    assert p.slots[3] == Slot(0, 3)
    assert p.slots[4] == Slot(1, 0)
    assert p.slots[7] == Slot(1, 3)


def test_block_placement_overflow_rejected():
    with pytest.raises(ValueError):
        block_placement(9, 2, 4)


def test_block_core_pairs_are_adjacent_ranks():
    p = block_placement(4, 1, 4)
    pairs = {tuple(sorted(pair)) for pair in p.core_pairs}
    assert pairs == {(0, 1), (2, 3)}


def test_gang_pairs_heavy_with_light():
    loads = [1.0, 1.1, 1.2, 1.3, 7.0, 7.1, 7.2, 7.3]
    p = gang_placement(loads, 2, 4)
    for heavy, light in p.core_pairs:
        assert loads[heavy] > 5.0
        assert loads[light] < 2.0
        # the pair shares one physical core
        sh, sl = p.slots[heavy], p.slots[light]
        assert sh.node == sl.node
        assert sh.cpu // 2 == sl.cpu // 2


def test_gang_equalizes_node_totals():
    loads = [0.4, 0.5, 0.6, 0.7, 3.2, 3.3, 3.4, 3.5]
    p = gang_placement(loads, 2, 4)
    per_node = p.node_loads(loads)
    assert abs(per_node[0] - per_node[1]) < 0.5


def test_gang_vs_block_node_imbalance():
    loads = [0.4, 0.5, 0.6, 0.7, 3.2, 3.3, 3.4, 3.5]
    block = block_placement(len(loads), 2, 4).node_loads(loads)
    gang = gang_placement(loads, 2, 4).node_loads(loads)
    block_spread = abs(block[0] - block[1])
    gang_spread = abs(gang[0] - gang[1])
    assert gang_spread < block_spread / 5


def test_gang_odd_rank_count():
    loads = [1.0, 2.0, 3.0]
    p = gang_placement(loads, 1, 4)
    assert set(p.slots) == {0, 1, 2}
    assert len(p.core_pairs) == 1


def test_gang_rejects_odd_cpus_per_node():
    with pytest.raises(ValueError):
        gang_placement([1.0, 2.0], 1, 3)


def test_gang_overflow_rejected():
    with pytest.raises(ValueError):
        gang_placement([1.0] * 5, 1, 4)


@given(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=16),
    st.integers(1, 4),
)
def test_property_gang_placement_valid(loads, n_nodes):
    cpn = 4
    if len(loads) > n_nodes * cpn:
        return
    p = gang_placement(loads, n_nodes, cpn)
    # every rank placed exactly once, within bounds, no slot collision
    assert set(p.slots) == set(range(len(loads)))
    seen = set()
    for slot in p.slots.values():
        assert 0 <= slot.node < n_nodes
        assert 0 <= slot.cpu < cpn
        assert (slot.node, slot.cpu) not in seen
        seen.add((slot.node, slot.cpu))


def _min_scan_gang(loads, n_nodes, cpus_per_node):
    """Reference LPT placement: a min-scan over the non-full nodes per
    core pair (lowest total, lowest index on ties)."""
    order = sorted(range(len(loads)), key=lambda r: loads[r])
    pairs = []
    lo, hi = 0, len(loads) - 1
    while lo < hi:
        pairs.append((order[hi], order[lo]))
        lo += 1
        hi -= 1
    if lo == hi:
        pairs.append((order[lo],))
    pair_load = lambda p: sum(loads[r] for r in p)  # noqa: E731
    pairs.sort(key=pair_load, reverse=True)
    node_total = [0.0] * n_nodes
    node_next_cpu = [0] * n_nodes
    slots = {}
    for pair in pairs:
        candidates = [
            n for n in range(n_nodes)
            if node_next_cpu[n] // 2 < cpus_per_node // 2
        ]
        node = min(candidates, key=lambda n: node_total[n])
        for i, rank in enumerate(pair):
            slots[rank] = Slot(node, node_next_cpu[node] + i)
        node_next_cpu[node] += 2
        node_total[node] += pair_load(pair)
    return slots


@given(
    st.integers(1, 64).flatmap(
        lambda n_nodes: st.tuples(
            st.just(n_nodes),
            st.sampled_from([2, 4, 8]),
            # A small pool of values makes exact ties between ranks,
            # pairs and node totals common.
            st.lists(
                st.one_of(
                    st.sampled_from([0.5, 1.0, 1.5, 2.0]),
                    st.floats(min_value=0.0, max_value=10.0),
                ),
                min_size=1,
                max_size=2 * n_nodes,
            ),
        )
    )
)
def test_property_gang_matches_min_scan_reference(case):
    n_nodes, cpn, loads = case
    if len(loads) > n_nodes * cpn:
        return
    assert gang_placement(loads, n_nodes, cpn).slots == _min_scan_gang(
        loads, n_nodes, cpn
    )
