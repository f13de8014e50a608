"""Topology validation: the POWER5 model is strictly 2-way SMT.  No
thread count can be asked for, so any other width is a loud error."""

import pytest

from repro.power5.machine import Machine, MachineTopology


def test_single_thread_cores_rejected():
    with pytest.raises(TypeError, match="threads_per_core"):
        Machine(MachineTopology(threads_per_core=1))


def test_four_way_smt_rejected():
    with pytest.raises(TypeError, match="threads_per_core"):
        Machine(MachineTopology(threads_per_core=4))


def test_large_cluster_topologies_work():
    m = Machine(MachineTopology(chips=8, cores_per_chip=4))
    assert m.n_cpus == 64
    cores = m.cores()
    assert [c.core_id for c in cores] == list(range(32))
    assert [ctx.cpu_id for c in cores for ctx in c.contexts] == list(range(64))
    assert all(len(c.contexts) == 2 for c in cores)
