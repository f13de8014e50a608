"""The simulation engine: clock + event loop.

The :class:`Simulator` advances a simulated clock by draining a bucketed
:class:`~repro.simcore.events.EventQueue`.  Components schedule callbacks
with :meth:`Simulator.at` / :meth:`Simulator.after`; the engine guarantees:

* the clock never moves backwards,
* events at the same instant fire in (priority, insertion) order,
* a hard event-count limit catches accidental livelock (zero-delay loops).

The run loop is the hottest code in the repository: every simulated
context switch, tick, wakeup and phase completion pays it once.  It is
therefore hand-flattened — whole same-instant buckets are drained in one
pass, and ``at``/``after`` inline the queue push instead of going through
``EventQueue.push``.  ``Simulator.step`` keeps the composable slow path
for external single-stepping; both paths have identical semantics.
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


def _stop_sentinel() -> None:
    """Injected into the deferred list by :meth:`Simulator.stop` so the
    storm drain's single ``if deferred:`` test observes the stop without
    a per-event ``_stop_requested`` attribute load."""


class Simulator:
    """Discrete-event simulator with a float clock in simulated seconds.

    ``run()`` is two stages.  The *storm stage* handles the unobserved
    configuration (no horizon, no oracle; a ``stop_when`` predicate is
    allowed and checked after every delivery) with per-instant batched
    bookkeeping.  A horizon or an oracle sends the run to the *general
    stage*: same bucket drain, per-event exact bookkeeping, horizon
    peeking and the oracle hook.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.now: float = 0.0
        self.queue = EventQueue()
        self.max_events = max_events
        self.events_processed = 0
        self._running = False
        self._stop_requested = False
        #: Count of fast-forward chain-family users attached to this
        #: simulator (kernels bump it at construction).  The storm stage
        #: checks it per instant so that a kernel created *inside* an
        #: event (e.g. a campaign spawn) starts priority-tracked delivery
        #: before any chain family can read ``cur_event_prio``.
        self._ff_users = 0
        #: Packed order of the event whose callback is currently
        #: executing (``None`` outside event delivery); read through
        #: :attr:`cur_event_prio`.
        self._cur_order: Optional[int] = None
        #: Optional runtime oracle (repro.validate.invariants); receives
        #: every delivered event when validation is enabled.  Must be
        #: installed before :meth:`run` — the loop snapshots it.
        self.oracle: Optional[Any] = None
        #: Same-instant work queued by :meth:`defer`; drained after the
        #: current event's callback returns, before ``stop_when``.  The
        #: list object is stable so run loops may bind it locally.
        self._deferred: list[Callable[[], Any]] = []

    @property
    def cur_event_prio(self) -> Optional[int]:
        """Priority of the event whose callback is currently executing
        (``None`` outside event delivery).  Fast-forward re-arm walks use
        it to order a reinstated chain point that collides with ``now``
        exactly as same-instant delivery would have.  Stored packed (the
        delivering event's ``order``) so the drain stores an int it
        already has."""
        order = self._cur_order
        return None if order is None else order // SEQ_SPAN

    def defer(self, fn: Callable[[], Any]) -> None:
        """Run ``fn`` once, at the current instant, after the event
        callback now executing returns (and before ``stop_when`` is
        evaluated).  Components use this to *batch* work that several
        actions within one event would otherwise each repeat — e.g. the
        kernel coalesces per-core rate propagation this way.  Deferred
        functions may defer further work; everything drains before the
        clock moves."""
        self._deferred.append(fn)

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

    # ------------------------------------------------------------------
    # Scheduling API (hand-inlined EventQueue.push)
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        fn: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``fn`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} (< now {self.now})"
            )
        queue = self.queue
        seq = queue._seq
        queue._seq = seq + 1
        order = seq if priority == 0 else priority * SEQ_SPAN + seq
        ev = Event()  # see EventQueue.push on the += form
        ev += (order, fn, time, label, queue)
        buckets = queue._buckets
        b = buckets.get(time)
        if b is None:
            buckets[time] = ev
            heapq.heappush(queue._times, time)
        elif type(b) is list:
            # Same invariant as EventQueue.push: flag iff the current
            # tail outranks this event (exact packed-order compare —
            # in-order priority pushes must not flag).
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
        label: str = "",
    ) -> Event:
        """Schedule ``fn`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        queue = self.queue
        seq = queue._seq
        queue._seq = seq + 1
        order = seq if priority == 0 else priority * SEQ_SPAN + seq
        t = self.now + delay
        ev = Event()  # see EventQueue.push on the += form
        ev += (order, fn, t, label, queue)
        buckets = queue._buckets
        b = buckets.get(t)
        if b is None:
            buckets[t] = ev
            heapq.heappush(queue._times, t)
        elif type(b) is list:
            # Same invariant as EventQueue.push (see at()).
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
    def step(self) -> bool:
        """Fire the next pending event.  Returns ``False`` when the queue
        is empty (nothing fired).  Like :meth:`run`, not reentrant: a
        callback must not step the simulator that is delivering it."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        ev = self.queue.pop()
        if ev is None:
            return False
        if ev[2] < self.now:
            raise SimulationError(
                f"event {ev!r} scheduled in the past (now={self.now})"
            )
        self.now = ev[2]
        self.events_processed += 1
        if self.events_processed > self.max_events:
            raise SimulationError(
                f"event limit {self.max_events} exceeded at t={self.now}: "
                "likely a zero-delay event livelock"
            )
        if self.oracle is not None:
            self.oracle.on_event(ev)
        self._running = True
        self._cur_order = ev[0]
        try:
            ev[1]()
            if self._deferred:
                self._run_deferred()
        finally:
            self._running = False
            self._cur_order = None
        return True

    def stop(self) -> None:
        """Request the current :meth:`run` loop to stop after the event
        being processed."""
        self._stop_requested = True
        # The storm stage folds its stop check into the existing
        # ``if deferred:`` test; make sure that test fires.
        if self._running and not self._deferred:
            self._deferred.append(_stop_sentinel)

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

        Returns the simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stop_requested = False
        queue = self.queue
        processed = self.events_processed
        queue._draining = True
        try:
            if until is None and self.oracle is None:
                processed = self._run_storm(queue, processed, stop_when)
            if not self._stop_requested:
                processed = self._run_general(
                    queue, processed, until, stop_when
                )
            if until is not None and len(queue) == 0 and until > self.now:
                self.now = until
        finally:
            self._running = False
            self._cur_order = None
            queue._draining = False
            queue._drain_bucket = None
        return self.now

    def _run_storm(
        self,
        queue: EventQueue,
        processed: int,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """The hot stage: batched per-instant bookkeeping, no horizon,
        no oracle.  ``stop_when`` (when given) is evaluated after every
        delivered event, so predicate-bounded runs stop on the same
        event as the general stage would.  While fast-forward chain
        families are registered (``_ff_users``, re-checked per instant)
        the delivering event's packed order is stored per delivery so
        ``cur_event_prio`` stays observable.  On any exception the
        in-flight bucket is reconciled from the delivered markers
        (``ev[4] is False``), so counters and bucket state stay exact
        and ``run()`` can even be resumed after a handler error.
        """
        buckets = queue._buckets
        times = queue._times
        unsorted = queue._unsorted
        heappop = heapq.heappop
        heappush = heapq.heappush
        max_events = self.max_events
        deferred = self._deferred
        t = 0.0
        try:
            while times:
                # Hoisted per instant: chain families (the sole readers
                # of ``cur_event_prio``) register at kernel construction,
                # so within one instant the flag is stable enough — only
                # events delivered *after* registration expose their
                # priority.
                track = self._ff_users
                t = heappop(times)
                b = buckets.pop(t, None)
                if b is None:
                    continue  # stale entry for an already-drained instant
                if t < self.now:
                    raise SimulationError(
                        f"event at t={t} scheduled in the past (now={self.now})"
                    )
                if type(b) is not list:
                    # Singleton instant: no bucket machinery, exact
                    # per-event bookkeeping (same cost for one event).
                    fn = b[1]
                    if fn is None:
                        queue._corpses -= 1
                        continue
                    self.now = t
                    b[4] = False
                    queue._delivered += 1
                    processed += 1
                    if processed > max_events:
                        raise SimulationError(
                            f"event limit {max_events} exceeded at "
                            f"t={self.now}: likely a zero-delay event livelock"
                        )
                    if track:
                        self._cur_order = b[0]
                    fn()
                    if deferred:
                        self._run_deferred()
                        if self._stop_requested:
                            break
                    if stop_when is not None and stop_when():
                        self._stop_requested = True
                        break
                    continue
                # List bucket: deliver the whole instant with one clock
                # store and batched counter updates at the end.
                buckets[t] = b  # stay visible so same-instant pushes append
                if unsorted and t in unsorted:
                    b.sort()
                    unsorted.discard(t)
                prev = self.now
                self.now = t
                k = len(b)
                if processed + k > max_events and (
                    processed + sum(1 for e in b if e[1] is not None)
                    > max_events
                ):
                    raise SimulationError(
                        f"event limit {max_events} exceeded at t={self.now}: "
                        "likely a zero-delay event livelock"
                    )
                epoch = queue._clear_epoch
                queue._drain_bucket = b
                skipped = 0
                stopped = False
                i = 0  # consumed count when the drain breaks early
                if stop_when is None and not track:
                    # Leanest body — no predicate, no priority tracking,
                    # and no per-event position counter: the consumed
                    # count is recovered with one index() on the rare
                    # early stop or same-instant append.  This is the
                    # storm path; keep it free of per-event bookkeeping.
                    for ev in b:
                        fn = ev[1]
                        if fn is None:
                            skipped += 1  # cancelled before/during instant
                            continue
                        ev[4] = False
                        fn()
                        if deferred:
                            self._run_deferred()
                            if self._stop_requested:
                                stopped = True
                                i = b.index(ev) + 1
                                break
                        if len(b) != k:
                            # Same-instant pushes landed (or clear()
                            # emptied the bucket).  The list iterator
                            # picks appended events up; the undelivered
                            # tail is re-sorted only when a push actually
                            # broke its order (the _unsorted flag), so
                            # an append cascade stays linear in the
                            # bucket width instead of quadratic.
                            if queue._clear_epoch != epoch:
                                break
                            i = b.index(ev) + 1
                            k = len(b)
                            if processed + k > max_events and (
                                processed
                                + sum(1 for e in b if e[1] is not None)
                                > max_events
                            ):
                                raise SimulationError(
                                    f"event limit {max_events} exceeded "
                                    f"at t={self.now}: likely a "
                                    "zero-delay event livelock"
                                )
                            if t in unsorted:
                                rest = b[i:]
                                rest.sort()
                                b[i:] = rest
                                unsorted.discard(t)
                else:
                    # Same drain with a per-event position counter plus
                    # the stop_when / cur_event_prio hooks — the kernel
                    # and cluster path (predicate-bounded runs, chain
                    # families).
                    for ev in b:
                        i += 1
                        fn = ev[1]
                        if fn is None:
                            skipped += 1  # cancelled before/during instant
                            continue
                        ev[4] = False
                        if track:
                            self._cur_order = ev[0]
                        fn()
                        if deferred:
                            self._run_deferred()
                            if self._stop_requested:
                                stopped = True
                                break
                        if stop_when is not None and stop_when():
                            self._stop_requested = True
                            stopped = True
                            break
                        if len(b) != k:
                            # See the lean body's note on the flag-gated
                            # tail resort.
                            if queue._clear_epoch != epoch:
                                break
                            k = len(b)
                            if processed + k > max_events and (
                                processed
                                + sum(1 for e in b if e[1] is not None)
                                > max_events
                            ):
                                raise SimulationError(
                                    f"event limit {max_events} exceeded "
                                    f"at t={self.now}: likely a "
                                    "zero-delay event livelock"
                                )
                            if t in unsorted:
                                rest = b[i:]
                                rest.sort()
                                b[i:] = rest
                                unsorted.discard(t)
                if queue._clear_epoch != epoch:
                    # Mid-bucket clear(): the queue reconciled its own
                    # counters; fold the interrupted bucket's deliveries
                    # into the processed count and move on.
                    processed += queue._flushed
                    queue._flushed = 0
                    if self._stop_requested:
                        break
                    continue
                queue._drain_bucket = None
                n_done = i if stopped else len(b)
                delivered = n_done - skipped
                queue._delivered += delivered
                queue._corpses -= skipped
                processed += delivered
                if delivered == 0:
                    # Corpse-only instant: nothing fired, so the clock
                    # must not have advanced.
                    self.now = prev
                if stopped and n_done < len(b):
                    del b[:n_done]
                    heappush(times, t)
                elif buckets.get(t) is b:
                    del buckets[t]
                if stopped:
                    break
            return processed
        except BaseException:
            # Reconcile the in-flight bucket from the delivered markers:
            # everything up to the last event marked False (inclusive)
            # has been consumed — fold it into the counters and drop it
            # from the bucket so state is exact when the error surfaces.
            b = queue._drain_bucket
            if b is not None:
                queue._drain_bucket = None
                n_done = 0
                for idx in range(len(b) - 1, -1, -1):
                    if b[idx][4] is False:
                        n_done = idx + 1
                        break
                if n_done:
                    delivered = sum(1 for ev in b[:n_done] if ev[4] is False)
                    queue._delivered += delivered
                    queue._corpses -= n_done - delivered
                    processed += delivered
                    del b[:n_done]
                if b:
                    heappush(times, t)
                elif buckets.get(t) is b:
                    del buckets[t]
            raise
        finally:
            if queue._flushed:
                # clear() interrupted a bucket and the normal
                # reconciliation did not run (exception inside the same
                # handler): pick the flushed deliveries up here.
                processed += queue._flushed
                queue._flushed = 0
            self.events_processed = processed

    def _run_general(
        self,
        queue: EventQueue,
        processed: int,
        until: Optional[float],
        stop_when: Optional[Callable[[], bool]],
    ) -> int:
        """Bucket drain with per-event exact bookkeeping (the validation
        oracle asserts the live counters at every delivery), horizon
        peeking and priority tracking for fast-forward re-arm walks."""
        buckets = queue._buckets
        times = queue._times
        heappop = heapq.heappop
        max_events = self.max_events
        deferred = self._deferred
        oracle = self.oracle
        b: Any = None
        t = 0.0
        n_done = 0
        listed = False
        try:
            while not self._stop_requested:
                b = None
                head = queue._head()
                if head is None:
                    break
                t, b = head
                if until is not None and t > until:
                    b = None
                    if until > self.now:
                        self.now = until
                    break
                if t < self.now:
                    b = None
                    raise SimulationError(
                        f"event at t={t} scheduled in the past (now={self.now})"
                    )
                listed = type(b) is list
                if not listed:
                    heappop(times)
                    del buckets[t]
                    b = [b]
                self.now = t
                k = len(b)
                n_done = 0
                for ev in b:
                    n_done += 1
                    fn = ev[1]
                    if fn is None:
                        queue._corpses -= 1
                        continue
                    ev[4] = False
                    queue._delivered += 1
                    processed += 1
                    self.events_processed = processed
                    if processed > max_events:
                        raise SimulationError(
                            f"event limit {max_events} exceeded at "
                            f"t={self.now}: likely a zero-delay event livelock"
                        )
                    if oracle is not None:
                        oracle.on_event(ev)
                    self._cur_order = ev[0]
                    fn()
                    if deferred:
                        self._run_deferred()
                    if stop_when is not None and stop_when():
                        self._stop_requested = True
                    if self._stop_requested:
                        break
                    if len(b) != k:
                        if not b:
                            break  # clear() emptied the bucket in place
                        k = len(b)
                        # Same-instant appends: sort the undelivered tail
                        # only when a push actually broke its order (see
                        # the storm-stage note on the _unsorted flag).
                        if t in queue._unsorted:
                            rest = b[n_done:]
                            rest.sort()
                            b[n_done:] = rest
                            queue._unsorted.discard(t)
                if listed:
                    # t stays in the times heap for list buckets (only
                    # _head removes it), so no re-push is needed when
                    # events remain after an early stop.
                    if n_done >= len(b):
                        if buckets.get(t) is b:
                            del buckets[t]
                    else:
                        del b[:n_done]
                b = None
            return processed
        except BaseException:
            # Counters are per-event exact here; only the structural
            # prefix cleanup is pending.  Drop the consumed events so
            # they cannot be re-delivered on a resumed run.
            if listed and b is not None and n_done:
                del b[:n_done]
                if not b and buckets.get(t) is b:
                    del buckets[t]
            raise
        finally:
            self.events_processed = processed

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Simulator now={self.now:.6f} pending={len(self.queue)} "
            f"processed={self.events_processed}>"
        )
