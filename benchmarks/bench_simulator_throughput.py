"""Simulator event storms: the engine delivers exactly what it is given.

Not a paper artifact.  Runs (a) a single self-rescheduling chain, (b) a
deep heap (512 staggered chains, the shape of a real kernel's event
queue), and (c) the full MetBench experiment, asserting the delivered
event counts and the simulated run length.

Timings of what users run (reports, campaigns, clusters) live in
``perfbench/``, the one timing harness.
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


def test_event_throughput():
    processed = event_storm_chain()
    assert processed == 200_000


def test_event_throughput_deep_heap():
    processed = event_storm_deep()
    # 512 chains x (200_000 // 512) hops each
    assert processed == 512 * (200_000 // 512)


def test_metbench_simulation_cost():
    # Kept, so the kernel's delivered count can be read.
    result = run_experiment(MetBench(), "uniform", keep_trace=True)
    # 73 simulated seconds; the event-driven design must stay well under
    # 100k events (vs ~290k 1ms ticks a full-tick kernel would burn)
    assert result.exec_time > 70.0
    assert result.kernel.sim.events_processed == 366
