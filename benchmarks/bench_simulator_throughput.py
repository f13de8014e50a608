"""Simulator performance: wall cost of the simulation itself.

Not a paper artifact — a guard against performance regressions in the
engine.  Measures (a) raw event throughput through a single
self-rescheduling chain, (b) throughput with a deep heap (512 staggered
chains, the shape of a real kernel's event queue), and (c) the full
MetBench experiment, asserting the NOHZ/fluid-rate design keeps the
event count per simulated second low.

End-to-end timings of what users run (reports, campaigns, clusters)
live in ``perfbench/``; these storms time the bare engine.
"""

from repro.experiments.common import run_experiment
from repro.simcore.engine import Simulator
from repro.workloads.metbench import MetBench

#: Events per storm.
STORM_EVENTS = 200_000

#: Concurrent chains of the deep storm (heap depth while running).
STORM_CHAINS = 512


def event_storm_chain(n: int = STORM_EVENTS) -> int:
    """Single self-rescheduling chain; returns events processed.

    The queue never holds more than one event, so this isolates the
    per-event fixed cost of the run loop (pop, clock update, callback
    dispatch, push)."""
    sim = Simulator()

    def chain(i: int = 0) -> None:
        if i < n:
            sim.after(1e-6, lambda: chain(i + 1))

    chain()
    sim.run()
    return sim.events_processed


def event_storm_deep(n: int = STORM_EVENTS, chains: int = STORM_CHAINS) -> int:
    """``chains`` concurrent self-rescheduling chains with staggered
    periods; returns events processed (``chains * (n // chains)``).

    The queue stays hundreds of events deep, the shape of a real
    kernel's queue, so timestamp-heap and bucket bookkeeping dominate."""
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


def test_event_throughput(benchmark):
    processed = benchmark.pedantic(
        event_storm_chain, rounds=1, iterations=1
    )
    assert processed == 200_000


def test_event_throughput_deep_heap(benchmark):
    processed = benchmark.pedantic(
        event_storm_deep, rounds=1, iterations=1
    )
    # 512 chains x (200_000 // 512) hops each
    assert processed == 512 * (200_000 // 512)


def test_metbench_simulation_cost(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(MetBench(), "uniform", keep_trace=False),
        rounds=1,
        iterations=1,
    )
    # 73 simulated seconds; the event-driven design must stay well under
    # 100k events (vs ~290k 1ms ticks a full-tick kernel would burn)
    assert result.exec_time > 70.0
