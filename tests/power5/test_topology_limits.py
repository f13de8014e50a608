"""Topology validation: the POWER5 model is strictly 2-way SMT."""

import pytest

from repro.power5.machine import Machine, MachineTopology
from repro.power5.priorities import PriorityError


def test_single_thread_cores_rejected():
    with pytest.raises(PriorityError, match="2-way"):
        Machine(MachineTopology(threads_per_core=1))


def test_four_way_smt_rejected():
    with pytest.raises(PriorityError, match="2-way"):
        Machine(MachineTopology(threads_per_core=4))


def test_large_cluster_topologies_work():
    m = Machine(MachineTopology(chips=8, cores_per_chip=4))
    assert m.n_cpus == 64
    assert len(m.cores()) == 32
    assert len(m.chips) == 8
