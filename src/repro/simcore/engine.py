"""The simulation engine: clock + event loop.

The :class:`Simulator` advances a simulated clock by draining a bucketed
:class:`~repro.simcore.events.EventQueue`.  Components schedule callbacks
with :meth:`Simulator.at` / :meth:`Simulator.after`; the engine guarantees:

* the clock never moves backwards,
* events at the same instant fire in (priority, insertion) order,
* a hard event-count limit catches accidental livelock (zero-delay loops).

The run loop is the hottest code in the repository: every simulated
context switch, tick, wakeup and phase completion pays it once.  It is
therefore hand-flattened — one loop drains a whole same-instant bucket
per pass, and ``at``/``after`` each push into the queue's buckets
directly, with no queue method in between.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.simcore.events import SEQ_SPAN, Event, EventQueue

#: Default ceiling on processed events, generous enough for multi-hundred
#: simulated seconds of a 4-CPU machine, small enough to catch livelocks.
DEFAULT_MAX_EVENTS = 50_000_000


class SimulationError(RuntimeError):
    """Raised for engine misuse (time travel, livelock, ...)."""


class Simulator:
    """Discrete-event simulator with a float clock in simulated seconds.

    ``run()`` is one loop for every configuration: a horizon, a
    ``stop_when`` predicate and the validation oracle are per-event or
    per-instant checks inside it, and the bookkeeping (clock, queue
    counters) is exact at every event boundary.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.now: float = 0.0
        self.queue = EventQueue()
        self.max_events = max_events
        #: Delivered events, stored when :meth:`run` returns.
        self.events_processed = 0
        self._running = False
        #: Optional runtime oracle (repro.validate.invariants); receives
        #: every delivered event when validation is enabled.  Must be
        #: installed before :meth:`run` — the loop snapshots it.
        self.oracle: Optional[Any] = None
        #: Same-instant work queued by :meth:`defer`; drained after the
        #: current event's callback returns, before ``stop_when``.  The
        #: list object is stable so the run loop may bind it locally.
        self._deferred: list[Callable[[], Any]] = []
        #: The running loop's ``stop_when`` (read by :meth:`instant_boundary`).
        self._stop_when: Optional[Callable[[], bool]] = None

    def defer(self, fn: Callable[[], Any]) -> None:
        """Run ``fn`` once, at the current instant, after the event
        callback now executing returns (and before ``stop_when`` is
        evaluated).  Components use this to *batch* work that several
        actions within one event would otherwise each repeat — e.g. the
        kernel coalesces per-core rate propagation this way.  Deferred
        functions may defer further work; everything drains before the
        clock moves.

        Outside a run there is no event to wait for, so ``fn`` runs at
        once (a driver acting between two :meth:`run` calls sees its
        effect before the next event)."""
        if self._running:
            self._deferred.append(fn)
        else:
            fn()

    def _run_deferred(self) -> None:
        deferred = self._deferred
        while deferred:
            if len(deferred) == 1:
                # Common case (one dirty-core drain per event): skip
                # the defensive snapshot copy.
                fn = deferred[0]
                deferred.clear()
                fn()
                continue
            pending = deferred[:]
            deferred.clear()
            for fn in pending:
                fn()

    def instant_boundary(self) -> bool:
        """The run loop's step between two same-instant events, for a
        callback that serves several units of work (the kernel's
        reschedule batch): drain deferred work, then return True where
        the loop would act before the next unit — ``stop_when``, or a
        push at this instant that sorts ahead of the bucket's rest.
        The caller then re-queues its remaining units and returns."""
        if self._deferred:
            self._run_deferred()
        stop_when = self._stop_when
        return self.now in self.queue._unsorted or (
            stop_when is not None and stop_when()
        )

    # ------------------------------------------------------------------
    # Scheduling API: the queue's only push sites
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        fn: Callable[[], Any],
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn`` at absolute simulated ``time``."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule event at {time} (< now {self.now})"
            )
        queue = self.queue
        seq = queue._seq
        queue._seq = seq + 1
        order = seq if priority == 0 else priority * SEQ_SPAN + seq
        # Built empty then extended in place: list.__iadd__ skips the
        # iterable-copy constructor, measurably cheaper on this path.
        ev = Event()
        ev += (order, fn, time, queue)
        buckets = queue._buckets
        b = buckets.get(time)
        if b is None:
            buckets[time] = ev
            heapq.heappush(queue._times, time)
        elif type(b) is list:
            # An append keeps a sorted bucket sorted *iff* the current
            # tail does not outrank it.  The packed-order compare is the
            # exact condition — a priority push that still lands in
            # order (the common resched cascade: p5 after p5, or p5
            # after a tail of lower-priority wakeups) must NOT flag, or
            # every barrier-width instant pays one tail sort per event.
            # An already-flagged bucket is sorted at drain regardless,
            # so comparing only the tail stays sound.  A list bucket is
            # never empty (the run loop and _compact prune emptied
            # instants), so the tail index is safe.
            if b[-1][0] > order:
                queue._unsorted.add(time)
            b.append(ev)
        else:
            buckets[time] = [b, ev]
            if b[0] > order:
                queue._unsorted.add(time)
        return ev

    def after(
        self,
        delay: float,
        fn: Callable[[], Any],
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn`` after ``delay`` seconds of simulated time."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative delay {delay}")
        queue = self.queue
        seq = queue._seq
        queue._seq = seq + 1
        order = seq if priority == 0 else priority * SEQ_SPAN + seq
        t = self.now + delay
        ev = Event()  # see at() on the += form
        ev += (order, fn, t, queue)
        buckets = queue._buckets
        b = buckets.get(t)
        if b is None:
            buckets[t] = ev
            heapq.heappush(queue._times, t)
        elif type(b) is list:
            # Same invariant as at(): flag iff the tail outranks it.
            if b[-1][0] > order:
                queue._unsorted.add(t)
            b.append(ev)
        else:
            buckets[t] = [b, ev]
            if b[0] > order:
                queue._unsorted.add(t)
        return ev

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Optional simulated-time horizon; events beyond it stay queued
            and the clock is advanced to ``until``.
        stop_when:
            Optional predicate evaluated after every event; the run stops
            as soon as it returns ``True``.

        Returns the simulated time at which the run stopped.  Not
        reentrant: a callback must not run the simulator delivering it.
        After a handler error the queue holds exactly the undelivered
        events, so ``run()`` may be called again to resume.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        stopped = False
        self._stop_when = stop_when
        queue = self.queue
        buckets = queue._buckets
        times = queue._times
        unsorted = queue._unsorted
        heappop = heapq.heappop
        heappush = heapq.heappush
        horizon = float("inf") if until is None else until
        max_events = self.max_events
        deferred = self._deferred
        oracle = self.oracle
        processed = self.events_processed
        queue._draining = True
        try:
            while times:
                t = times[0]
                if t > horizon:
                    break  # stays queued
                if t < self.now:
                    raise SimulationError(
                        f"event at t={t} scheduled in the past (now={self.now})"
                    )
                heappop(times)
                b = buckets[t]
                if type(b) is not list:
                    # A singleton becomes a one-element bucket.  The
                    # bucket stays registered while it drains, so
                    # same-instant pushes append to it.
                    buckets[t] = b = [b]
                if unsorted and t in unsorted:
                    b.sort()
                    unsorted.discard(t)
                prev = self.now
                self.now = t
                start = processed
                k = len(b)
                i = 0  # consumed prefix of b
                try:
                    for ev in b:
                        i += 1
                        fn = ev[1]
                        if fn is None:
                            queue._corpses -= 1  # cancelled before delivery
                            continue
                        ev[3] = False
                        queue._delivered += 1
                        processed += 1
                        if processed > max_events:
                            raise SimulationError(
                                f"event limit {max_events} exceeded at "
                                f"t={t}: likely a zero-delay event livelock"
                            )
                        if oracle is not None:
                            oracle.on_event(ev)
                        fn()
                        if deferred:
                            self._run_deferred()
                        if stop_when is not None and stop_when():
                            stopped = True
                            break
                        if len(b) != k:
                            # Same-instant pushes landed.  The list
                            # iterator picks them up; the undelivered
                            # tail is re-sorted only when a push broke
                            # its order (the _unsorted flag), so an
                            # append cascade stays linear in the bucket
                            # width instead of quadratic.
                            k = len(b)
                            if t in unsorted:
                                rest = b[i:]
                                rest.sort()
                                b[i:] = rest
                                unsorted.discard(t)
                finally:
                    # Drop the consumed prefix (also on a handler error,
                    # which keeps run() resumable); a stop leaves the
                    # rest of the instant queued.
                    if i < len(b):
                        del b[:i]
                        heappush(times, t)
                    else:
                        del buckets[t]
                if processed == start:
                    self.now = prev  # corpse-only instant: nothing fired
                if stopped:
                    break
            if (
                until is not None
                and until > self.now
                and (not stopped or len(queue) == 0)
            ):
                self.now = until
        finally:
            self.events_processed = processed
            self._running = False
            self._stop_when = None
            queue._draining = False
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Simulator now={self.now:.6f} pending={len(self.queue)} "
            f"processed={self.events_processed}>"
        )
