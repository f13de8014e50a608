"""How fast the host ran a round, sampled from inside the round.

The benchmark's host is a few virtual CPUs of a shared machine.  Their
throughput swings with what other tenants run, by up to about twice,
within seconds and over minutes, in CPU time as well as in wall time.
Rounds of the same code on the same seed spread by a sixth or more of
their median.  A reference workload timed right before and after a
round, or on the other CPU during it, does not predict the round's
speed.

What does: a :class:`Sampler` thread in the round's own process times a
small fixed chunk of pure-Python work every :data:`PERIOD_S`.  The
chunk holds the interpreter lock while it runs, so it runs on the
round's CPU, interleaved with the round.  The round's speed is
:data:`REFERENCE_S` over the mean chunk time, and ``run.py`` multiplies
the round's host times by it, so they read as seconds on a host that
runs the chunk in ``REFERENCE_S``.  The chunk is independent of the
simulator and creates no containers, so no change to the simulator
moves it.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import List

#: Seconds one chunk takes on the host that defined the benchmark.
#: Scaled times read as seconds on such a host; only their ratios are
#: ever compared.
REFERENCE_S = 0.0012

#: Seconds between chunks: about 5% of the round's CPU goes to sampling.
PERIOD_S = 0.025

_REPEATS = 120


class _Cell:
    __slots__ = ("x", "k", "w")

    def __init__(self, i: int) -> None:
        self.x = 1.0 + i
        self.k = i & 63
        self.w = 0.5 + i / 64

    def step(self, table: dict) -> None:
        self.x = self.x * 0.999 + table[self.k] * self.w
        self.k = (self.k + 7) & 63


class Sampler:
    """Times the reference chunk every :data:`PERIOD_S` in a daemon
    thread, from :meth:`start` to :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._cells = [_Cell(i) for i in range(64)]
        self._table = {i: i * 0.25 for i in range(64)}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def _chunk(self) -> None:
        cells, table = self._cells, self._table
        for _ in range(_REPEATS):
            for cell in cells:
                cell.step(table)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = perf_counter()
            self._chunk()
            self.samples.append(perf_counter() - t0)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self) -> float:
        """:data:`REFERENCE_S` over the mean chunk time (1.0 unsampled)."""
        if not self.samples:
            return 1.0
        return REFERENCE_S * len(self.samples) / sum(self.samples)
