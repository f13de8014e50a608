"""Cluster simulation tests."""

import gc

import pytest

from repro.cluster import Cluster, InterconnectModel
from repro.cluster.experiment import ladder_loads, run_cluster
from repro.cluster.gang import block_placement
from repro.hpcsched import UniformHeuristic
from repro.mpi.messages import LatencyModel
from repro.mpi.process import MPIRank
from repro.simcore.engine import SimulationError


def test_nodes_share_one_clock():
    c = Cluster(n_nodes=3)
    assert all(n.kernel.sim is c.sim for n in c.nodes)
    assert len(c.nodes) == 3
    assert c.cpus_per_node == 4


def test_each_node_gets_its_own_hpcsched():
    c = Cluster(n_nodes=2)
    assert c.nodes[0].hpc_class is not None
    assert c.nodes[0].hpc_class is not c.nodes[1].hpc_class


def test_no_hpc_when_factory_none():
    c = Cluster(n_nodes=2, heuristic_factory=None)
    assert all(n.hpc_class is None for n in c.nodes)
    assert not c.use_hpc


def test_inter_node_messages_cost_more():
    c = Cluster(n_nodes=2)
    c._rank_node = {0: 0, 1: 0, 2: 1}
    intra = c._route_delay(0, 1, 1024)
    inter = c._route_delay(0, 2, 1024)
    assert inter > intra


def test_cross_node_application_completes():
    c = Cluster(n_nodes=2, heuristic_factory=None)
    log = []

    def ping(mpi: MPIRank):
        def prog():
            yield mpi.compute(0.01)
            yield mpi.send(1, tag=0)
            yield mpi.recv(1, tag=1)
            log.append("ping-done")

        return prog()

    def pong(mpi: MPIRank):
        def prog():
            yield mpi.recv(0, tag=0)
            yield mpi.compute(0.01)
            yield mpi.send(0, tag=1)
            log.append("pong-done")

        return prog()

    placement = block_placement(2, 2, 1)  # rank0 -> node0, rank1 -> node1
    # widen to the real cpus_per_node mapping
    placement.slots[1] = type(placement.slots[1])(1, 0)
    c.launch([ping, pong], placement)
    c.run()
    assert sorted(log) == ["ping-done", "pong-done"]


def test_launch_requires_full_placement():
    c = Cluster(n_nodes=1, heuristic_factory=None)
    placement = block_placement(1, 1, 4)
    with pytest.raises(ValueError):
        c.launch([lambda m: iter(()), lambda m: iter(())], placement)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        run_cluster("random")


@pytest.mark.parametrize("iterations", [0, -2])
def test_run_cluster_rejects_fewer_than_one_iteration(iterations):
    with pytest.raises(ValueError, match="iteration"):
        run_cluster("block", iterations=iterations)


@pytest.mark.parametrize("base", [0.0, -1e-6])
def test_latency_model_rejects_nonpositive_base(base):
    with pytest.raises(ValueError, match="base"):
        LatencyModel(base=base)


@pytest.mark.parametrize("bandwidth", [0.0, -1.0])
def test_latency_model_rejects_nonpositive_bandwidth(bandwidth):
    with pytest.raises(ValueError, match="bandwidth"):
        LatencyModel(bandwidth=bandwidth)


def test_interconnect_model_rejects_smuggled_degenerate_models():
    class Fake:
        base = 0.0
        bandwidth = 1e9

    with pytest.raises(ValueError, match="inter"):
        InterconnectModel(inter=Fake())


def test_interconnect_model_default_is_valid():
    model = InterconnectModel()
    assert model.inter.base > 0
    assert model.intra.delay(0) > 0


@pytest.mark.slow
def test_gang_beats_block_and_hpc_compounds():
    """The §VI future-work result: gang placement fixes what the local
    scheduler cannot (node imbalance, heavy-heavy pairs); the local
    HPCSched then absorbs the remaining intra-core imbalance."""
    block_plain = run_cluster("block", iterations=4, use_hpc=False)
    block_hpc = run_cluster("block", iterations=4, use_hpc=True)
    gang_plain = run_cluster("gang", iterations=4, use_hpc=False)
    gang_hpc = run_cluster("gang", iterations=4, use_hpc=True)

    # gang placement is the big lever
    assert gang_plain.exec_time < 0.7 * block_plain.exec_time
    # HPCSched cannot rescue heavy-heavy pairings...
    assert block_hpc.exec_time == pytest.approx(block_plain.exec_time, rel=0.02)
    # ...but compounds with gang placement
    assert gang_hpc.exec_time < gang_plain.exec_time


def test_cluster_event_budget():
    """16 ranks x 20 iterations deliver about one event per
    rank-iteration: the phase completion.  The ranks a barrier wakes are
    installed by one reschedule batch per instant; one event per woken
    CPU would deliver 708."""
    res = run_cluster("block", loads=ladder_loads(16), iterations=20, n_nodes=4)
    assert res.events == 377
    assert res.exec_time == 71.40039999999999


def _barrier_workers(n_ranks, work=0.01, iterations=2):
    def worker():
        def factory(mpi: MPIRank):
            def prog():
                for _ in range(iterations):
                    yield mpi.compute(work)
                    yield mpi.barrier()

            return prog()

        return factory

    return [worker() for _ in range(n_ranks)]


def test_live_total_tracks_all_nodes():
    """The cluster's O(1) aggregate live counter mirrors the per-node
    kernels through launch and run-to-completion."""
    c = Cluster(n_nodes=2, heuristic_factory=None)
    assert c._live_total == 0
    ranks = 2 * c.cpus_per_node
    c.launch(
        _barrier_workers(ranks),
        block_placement(ranks, 2, c.cpus_per_node),
    )
    assert c._live_total == ranks
    assert c._live_total == sum(n.kernel.live_tasks for n in c.nodes)
    c.run()
    assert c._live_total == 0
    assert all(n.kernel.live_tasks == 0 for n in c.nodes)


def _gc_observer(seen):
    def observer(mpi: MPIRank):
        def prog():
            seen.append(gc.isenabled())
            yield mpi.compute(0.01)
            yield mpi.barrier()

        return prog()

    return observer


def test_run_disables_gc_and_restores_it_on_return():
    assert gc.isenabled()
    c = Cluster(n_nodes=2, heuristic_factory=None)
    ranks = 2 * c.cpus_per_node
    seen = []
    programs = _barrier_workers(ranks - 1, iterations=1) + [_gc_observer(seen)]
    c.launch(programs, block_placement(ranks, 2, c.cpus_per_node))
    c.run()
    assert c._live_total == 0
    assert seen == [False]  # the rank program ran with the collector off
    assert gc.isenabled()


def test_run_restores_gc_on_error():
    c = Cluster(n_nodes=2, heuristic_factory=None)
    ranks = 2 * c.cpus_per_node
    c.launch(_barrier_workers(ranks), block_placement(ranks, 2, c.cpus_per_node))
    c.sim.max_events = 5  # trip the livelock limit mid-run
    with pytest.raises(SimulationError, match="event limit"):
        c.run()
    assert gc.isenabled()


def test_run_keeps_gc_off_when_caller_disabled_it():
    c = Cluster(n_nodes=2, heuristic_factory=None)
    ranks = 2 * c.cpus_per_node
    c.launch(_barrier_workers(ranks), block_placement(ranks, 2, c.cpus_per_node))
    gc.disable()
    try:
        c.run()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_collector_off_run_leaves_no_cyclic_garbage():
    """What makes running with the collector off safe: a barrier run
    creates no reference cycles, so reference counting alone frees
    everything it drops."""
    c = Cluster(n_nodes=2)
    ranks = 2 * c.cpus_per_node
    c.launch(
        _barrier_workers(ranks, iterations=3),
        block_placement(ranks, 2, c.cpus_per_node),
    )
    gc.collect()
    c.run()
    assert c._live_total == 0
    assert gc.collect() == 0
