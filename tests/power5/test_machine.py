"""Machine topology tests."""

import pytest

from repro.power5.machine import Machine, MachineTopology


def test_default_is_papers_openpower710():
    m = Machine()
    assert m.topology.chips == 1
    assert m.topology.cores_per_chip == 2
    assert m.n_cpus == 4
    assert list(m.cpu_ids) == [0, 1, 2, 3]
    assert [c.core_id for c in m.cores()] == [0, 1]


def test_context_lookup_and_sibling():
    m = Machine()
    assert m.context(0).cpu_id == 0
    siblings = [
        m.context(c).core.contexts[1 - m.context(c).thread_index].cpu_id
        for c in m.cpu_ids
    ]
    assert siblings == [1, 0, 3, 2]


def test_core_of_groups_cpu_pairs():
    m = Machine()
    assert m.context(0).core is m.context(1).core
    assert m.context(2).core is m.context(3).core
    assert m.context(0).core is not m.context(2).core


def test_multi_chip_topology():
    m = Machine(MachineTopology(chips=2))
    assert m.n_cpus == 8
    pairs = [[ctx.cpu_id for ctx in core.contexts] for core in m.cores()]
    assert pairs == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert [c.core_id for c in m.cores()] == [0, 1, 2, 3]
    assert [m.context(c).core.core_id for c in m.cpu_ids] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert [m.context(c).thread_index for c in m.cpu_ids] == [0, 1] * 4


def test_unique_cpu_ids_across_chips():
    m = Machine(MachineTopology(chips=3))
    assert len(set(m.cpu_ids)) == m.n_cpus == 12


def test_cores_enumeration():
    m = Machine(MachineTopology(chips=2))
    cores = m.cores()
    assert len(cores) == 4
    assert [c.core_id for c in cores] == [0, 1, 2, 3]
