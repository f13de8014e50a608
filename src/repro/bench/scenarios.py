"""Benchmark workloads for the engine and the experiment stack.

Two synthetic event storms bracket the engine's behaviour:

* :func:`event_storm_chain` — a single self-rescheduling chain.  The
  queue never holds more than one event, so the measurement isolates the
  per-event fixed cost of the run loop (pop, clock update, callback
  dispatch, push).
* :func:`event_storm_deep` — many concurrent chains with staggered
  periods.  The queue stays hundreds of events deep, which is what real
  kernel queues look like (ticks, phase completions, balance timers and
  reschedules across every CPU), so the timestamp heap and bucket
  bookkeeping dominate.

Two cluster-scale scenarios exercise the scale-out path on top of the
full stack (paper §VI: "modern Supercomputers consist of thousands of
nodes"):

* :func:`event_storm_wide` — a synchronization storm across a 64-node
  cluster: 256 pinned ranks iterating tiny compute+barrier cycles, 4096
  compute-phase chains in total.  Per delivered event the engine pays
  the cluster stop predicate and every context switch pays the sibling
  rate-propagation path, so this measures exactly the per-event and
  per-rate-change overhead that scale-out amplifies.
* :func:`cluster_metbench` — the paper's MetBench load ladder placed on
  N nodes under *both* block and gang placement (the PR's
  ``cluster_metbench_16`` / ``cluster_metbench_64`` benchmarks), with
  one HPCSched per node.  End-to-end cluster throughput, balance timers
  and all.

The service-layer scenarios (:func:`serve_throughput`,
:func:`serve_throughput_warm`) measure ``repro.serve`` end to end —
admission, journal, fair-share dispatch, worker execution — in jobs
completed rather than simulator events: their ``events_per_sec`` reads
as jobs/sec.

All scenarios are deterministic: same arguments, same event count.
"""

from __future__ import annotations

from repro.simcore.engine import Simulator

#: Default number of events per storm; identical in quick and full bench
#: modes so throughput numbers stay comparable across reports.
DEFAULT_STORM_EVENTS = 200_000

#: Concurrent chains of the deep storm (heap depth while running).
DEFAULT_STORM_CHAINS = 512

#: Total compute-phase chains of the wide (cluster) storm:
#: ranks x iterations.
DEFAULT_WIDE_CHAINS = 4096

#: Nodes of the wide storm's cluster (4 logical CPUs each).
DEFAULT_WIDE_NODES = 64

#: Side-channel from the sharded scenarios to the bench harness: the
#: last sharded run's coordination stats (``sync_rounds``,
#: ``wire_bytes``, ``workers``), accumulated across the strategies a
#: scenario runs.  Scenario functions return event counts (the
#: throughput metric); the harness drains this via
#: :func:`consume_sharded_stats` into the record's ``meta`` so bench
#: JSON can attribute parallel wins without changing the comparable
#: params/metric surface.
LAST_SHARDED_STATS = None


def _record_sharded_stats(results) -> None:
    global LAST_SHARDED_STATS
    LAST_SHARDED_STATS = {
        "sync_rounds": sum(r.sync_rounds for r in results),
        "wire_bytes": sum(r.wire_bytes for r in results),
        "workers": results[0].workers if results else "inline",
    }


def consume_sharded_stats():
    """Return and clear the stats of the last sharded scenario run."""
    global LAST_SHARDED_STATS
    stats, LAST_SHARDED_STATS = LAST_SHARDED_STATS, None
    return stats


def event_storm_chain(n: int = DEFAULT_STORM_EVENTS) -> int:
    """Single self-rescheduling chain; returns events processed."""
    sim = Simulator()

    def chain(i: int = 0) -> None:
        if i < n:
            sim.after(1e-6, lambda: chain(i + 1))

    chain()
    sim.run()
    return sim.events_processed


def event_storm_deep(
    n: int = DEFAULT_STORM_EVENTS, chains: int = DEFAULT_STORM_CHAINS
) -> int:
    """``chains`` concurrent self-rescheduling chains with staggered
    periods; returns events processed (``chains * (n // chains)``)."""
    sim = Simulator()
    per_chain = n // chains

    def hop(c: int, i: int) -> None:
        if i < per_chain:
            # Staggered periods keep the chains out of lockstep so heap
            # order actually has to be maintained.
            sim.after(1e-6 * ((c % 7) + 1), lambda: hop(c, i + 1))

    for c in range(chains):
        hop(c, 0)
    sim.run()
    return sim.events_processed


#: Compute+sleep cycles of each timer-storm task.
DEFAULT_TIMER_ITERATIONS = 25


def event_storm_timers(
    iterations: int = DEFAULT_TIMER_ITERATIONS, fastforward: bool = True
) -> int:
    """Timer-dominated storm; returns events processed.

    A ``full_ticks`` kernel with one pinned task per CPU, each
    computing briefly then sleeping half a simulated second: during the
    sleeps nearly every event in the stock run is a tick or balance
    timer firing against an idle CPU — exactly the
    predetermined-outcome events :mod:`repro.simcore.fastforward`
    elides.  Benched twice (``fastforward`` on and off) so the report
    carries the elision speedup as a same-host wall-time pair.
    """
    from repro.kernel import Compute, Kernel, Sleep
    from repro.power5.machine import Machine, MachineTopology
    from repro.power5.perfmodel import TableDrivenModel

    machine = Machine(MachineTopology(), TableDrivenModel())
    kernel = Kernel(machine=machine, fastforward=fastforward)
    kernel.tunables.set("kernel/full_ticks", True)

    def prog():
        for _ in range(iterations):
            yield Compute(2e-4)
            yield Sleep(0.512)

    for cpu in kernel.machine.cpu_ids:
        kernel.spawn(f"pulse{cpu}", prog(), cpu=cpu, cpus_allowed=[cpu])
    kernel.run()
    return kernel.sim.events_processed


def event_storm_wide(
    chains: int = DEFAULT_WIDE_CHAINS, n_nodes: int = DEFAULT_WIDE_NODES
) -> int:
    """Cluster-wide synchronization storm; returns events processed.

    One pinned rank per logical CPU of an ``n_nodes``-node cluster
    (4 CPUs per node), each iterating a near-zero compute phase plus a
    global barrier until ``chains`` compute-phase chains have run
    (``chains // ranks`` iterations).  Loads are staggered by a
    microsecond per rank so phase completions stay distinct and the
    heap keeps thousands of concurrent chains (phases, wakeups,
    reschedules, balance timers) in flight.  No HPCSched: the storm
    isolates kernel + engine scale-out cost from heuristic cost.
    """
    from repro.cluster.cluster import Cluster
    from repro.cluster.gang import block_placement
    from repro.mpi.process import MPIRank

    cluster = Cluster(n_nodes=n_nodes, heuristic_factory=None)
    cpn = cluster.cpus_per_node
    ranks = n_nodes * cpn
    iterations = max(1, chains // ranks)

    def worker(load: float):
        def factory(mpi: MPIRank):
            def prog():
                for _ in range(iterations):
                    yield mpi.compute(load)
                    yield mpi.barrier()

            return prog()

        return factory

    programs = [worker(4e-4 + r * 1e-6) for r in range(ranks)]
    cluster.launch(programs, block_placement(ranks, n_nodes, cpn))
    cluster.run()
    return cluster.sim.events_processed


def cluster_metbench(n_nodes: int = 16, iterations: int = 2) -> int:
    """The paper's MetBench ladder on ``n_nodes`` nodes, run under both
    block and gang placement with one HPCSched per node; returns the
    total events processed across both runs."""
    from repro.cluster.experiment import ladder_loads, run_cluster

    loads = ladder_loads(4 * n_nodes)
    total = 0
    for strategy in ("block", "gang"):
        result = run_cluster(
            strategy, loads=loads, iterations=iterations, n_nodes=n_nodes
        )
        total += result.events
    return total


def cluster_metbench_sharded(
    n_nodes: int = 64,
    iterations: int = 2,
    shards: int = 8,
    workers: str = "inline",
) -> int:
    """The sharded-PDES twin of :func:`cluster_metbench`: the same
    block+gang workload pair partitioned over ``shards`` simulators
    (:mod:`repro.cluster.sharded`).  Per-rank completion times are
    bit-identical to the serial run's, so the wall-time ratio against
    ``cluster_metbench`` with the same parameters is a pure measure of
    the sharded runner's event elision (and, with process workers on a
    multi-core host, of parallel execution)."""
    from repro.cluster.experiment import ladder_loads, run_cluster_sharded

    loads = ladder_loads(4 * n_nodes)
    total = 0
    results = []
    for strategy in ("block", "gang"):
        result = run_cluster_sharded(
            strategy,
            loads=loads,
            iterations=iterations,
            n_nodes=n_nodes,
            shards=shards,
            workers=workers,
        )
        results.append(result)
        total += result.events
    _record_sharded_stats(results)
    return total


def event_storm_wide_sharded(
    chains: int = DEFAULT_WIDE_CHAINS,
    n_nodes: int = DEFAULT_WIDE_NODES,
    shards: int = 8,
    workers: str = "inline",
) -> int:
    """The sharded twin of :func:`event_storm_wide`: the identical
    synchronization storm partitioned over ``shards`` simulators;
    returns events processed across all shards."""
    from repro.cluster.gang import block_placement
    from repro.cluster.sharded import run_sharded
    from repro.mpi.process import MPIRank
    from repro.power5.machine import MachineTopology

    cpn = MachineTopology().n_cpus
    ranks = n_nodes * cpn
    iterations = max(1, chains // ranks)

    def worker(load: float):
        def factory(mpi: MPIRank):
            def prog():
                for _ in range(iterations):
                    yield mpi.compute(load)
                    yield mpi.barrier()

            return prog()

        return factory

    programs = [worker(4e-4 + r * 1e-6) for r in range(ranks)]
    result = run_sharded(
        n_nodes=n_nodes,
        programs=programs,
        placement=block_placement(ranks, n_nodes, cpn),
        heuristic_factory=None,
        shards=shards,
        workers=workers,
    )
    _record_sharded_stats([result])
    return result.events


# ----------------------------------------------------------------------
# Synthetic-generator scenarios (repro.workloads.synth)
# ----------------------------------------------------------------------

#: Rank count of the synth scenarios: the 16-chip machine (64 logical
#: CPUs) the convergence goldens also use.
DEFAULT_SYNTH_RANKS = 64


def synth_scatter(
    ranks: int = DEFAULT_SYNTH_RANKS,
    imbalance: float = 2.0,
    iterations: int = 5,
) -> int:
    """A 64-rank :class:`~repro.workloads.synth.SyntheticScatter` run
    under the Adaptive heuristic; returns events processed.

    Exercises the full single-kernel stack at one-rank-per-CPU scale:
    detector iteration closes, heuristic decisions and POWER5 rate
    recomputes across 16 chips, with the exact-imbalance generator
    providing a deterministic non-trivial load distribution.
    """
    from repro.experiments.common import run_experiment
    from repro.workloads.synth import SyntheticScatter

    workload = SyntheticScatter(
        imbalance=imbalance, ranks=ranks, iterations=iterations
    )
    result = run_experiment(
        workload, "adaptive", topology=workload.topology(), keep_trace=True
    )
    assert result.kernel is not None
    return result.kernel.sim.events_processed


def synth_convergence(
    ranks: int = DEFAULT_SYNTH_RANKS, iterations: int = 12
) -> int:
    """The step-change convergence probe (with reversal) under the
    Adaptive heuristic; returns events processed.

    The detector thaws and rebalances twice per run, so this measures
    the behaviour-change path — history resets, re-adjustment rounds,
    freeze — that the steady-state scenarios never touch.
    """
    from repro.experiments.common import run_experiment
    from repro.workloads.synth import SyntheticConvergence

    workload = SyntheticConvergence(
        ranks=ranks, iterations=iterations, revert_at=(3 * iterations) // 4
    )
    result = run_experiment(
        workload, "adaptive", topology=workload.topology(), keep_trace=True
    )
    assert result.kernel is not None
    return result.kernel.sim.events_processed


# ----------------------------------------------------------------------
# Service-layer scenarios (repro.serve)
# ----------------------------------------------------------------------

#: Jobs per service throughput pass; well inside the default admission
#: bounds so no submission is ever rejected mid-bench.
DEFAULT_SERVE_JOBS = 32


def _serve_pass(root: str, tenant: str, jobs: int, workers: int) -> int:
    """One full service pass: boot, submit ``jobs`` runs, drain, stop.

    Returns the number of completed jobs (the harness's "events", so
    the recorded throughput is jobs/sec).  Thread workers keep the
    measurement about the service overhead — admission, journal writes,
    fair-share dispatch — not process fork cost.
    """
    import asyncio

    from repro.campaign.spec import RunSpec
    from repro.serve.service import CampaignService
    from repro.serve.state import ServeConfig

    async def scenario() -> int:
        service = CampaignService(
            ServeConfig(
                root=root,
                port=0,
                workers=workers,
                worker_mode="thread",
                manual_clock=True,
                epoch_interval=None,
            )
        )
        await service.start()
        specs = [
            (RunSpec(experiment="table1", seed=s), "") for s in range(jobs)
        ]
        accepted, rejection = service.submit(tenant, specs)
        if rejection is not None or len(accepted) != jobs:
            raise RuntimeError("bench submission was rejected")
        if not await service.drain(timeout=600.0):
            raise RuntimeError("bench drain timed out")
        await service.stop()
        return len(accepted)

    return asyncio.run(scenario())


def serve_throughput(
    jobs: int = DEFAULT_SERVE_JOBS, workers: int = 1
) -> int:
    """Cold-cache service throughput on a fresh root."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as root:
        return _serve_pass(root, "bench", jobs, workers)


def serve_throughput_warm(
    jobs: int = DEFAULT_SERVE_JOBS, workers: int = 1
):
    """Factory for the warm-cache pass: returns the measurable callable.

    The cold fill happens here, outside the measurement; each call of
    the returned function submits the identical matrix as a fresh
    tenant, so every job completes from the shared content-addressed
    cache with zero executions — the pure service-overhead floor.
    """
    import atexit
    import itertools
    import shutil
    import tempfile

    root = tempfile.mkdtemp(prefix="bench-serve-warm-")
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    _serve_pass(root, "seed", jobs, workers)
    counter = itertools.count(1)

    def run() -> int:
        return _serve_pass(root, f"warm{next(counter)}", jobs, workers)

    return run
