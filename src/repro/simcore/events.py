"""Event and event-queue primitives for the discrete-event engine.

Events are ordered by ``(time, priority, seq)``.  ``priority`` breaks ties
between events scheduled for the same instant (lower runs first) and ``seq``
is a monotonically increasing sequence number that keeps ordering stable and
deterministic for equal ``(time, priority)`` pairs.

The queue exploits what event storms look like: *many events share an
instant* (same-instant bursts of phase completions, wakeups and
rescheds) and *most pushes carry priority 0*.

* :class:`EventQueue` keys a dict of **buckets** by exact float timestamp
  and keeps the distinct timestamps in a small ``heapq``.  A bucket is
  either a single :class:`Event` (stored inline — the common case for
  spread-out timers) or a plain list of them.  Pushing into an existing
  instant is an O(1) dict hit + list append; only the *first* event of
  an instant pays a heap push, and the heap holds timestamps, not
  events, so it stays small.
* :class:`Event` is a 5-slot ``list`` subclass ``[order, fn, time,
  label, queue]``.  ``order`` folds ``(priority, seq)`` into one integer
  (``priority * SEQ_SPAN + seq``), so sorting a bucket compares plain
  ints in C.  Cancellation is ``fn is None``; the queue slot doubles as
  the lifecycle marker: the owning queue while pending, ``False`` once
  delivered, ``None`` once cancelled.  No wrapper tuple, no ``__dict__``.
* **Lazy sortedness.**  An append extends a sorted bucket iff the
  current tail does not outrank the new event, and the packed-order
  compare (``b[-1][0] > order``) is that exact condition — so in-order
  cascades (monotonic priority-0 seq, or a resched storm appending p5
  after p5) never flag and never sort.  A push whose tail outranks it
  flags the timestamp in ``_unsorted`` and the drain sorts once per
  flagged instant.  The invariant (proof in DESIGN §13): after every
  push the bucket is either sorted or flagged — a flagged bucket stays
  flagged until the drain sorts it, and an unflagged bucket only ever
  received in-order appends.

Cancellation is *lazy*: :meth:`Event.cancel` clears the callback and the
drain skips such corpses, O(1) per cancel.  ``len()`` is still exact (it
is derived from push/deliver/cancel counters), and corpses are compacted
in bulk once they outnumber the live events.  The ordering contract is
pinned against a sorted-list model in ``tests/simcore/test_queue_property.py``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, Optional, Tuple

#: ``order = priority * SEQ_SPAN + seq`` packs the (priority, seq)
#: tie-break into one int.  2^48 sequence numbers per priority level is
#: unreachable (the engine's event limit trips several orders of
#: magnitude earlier), and floor division recovers negative priorities
#: exactly, so the packing is lossless.
SEQ_SPAN = 1 << 48


class Event(list):
    """A scheduled callback.

    Layout: ``[order, fn, time, label, queue]``.  The queue slot is the
    owning :class:`EventQueue` while pending, ``False`` after delivery,
    ``None`` after cancellation (or ``clear()``); the
    delivered/cancelled distinction lets a mid-drain ``clear()``
    reconcile the engine's batched counters exactly.

    The inherited C list comparison orders same-instant events by their
    packed ``order`` int (all a bucket sort ever compares); it is *not*
    meaningful across different timestamps — order events by ``.time``
    first.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[2]

    @property
    def priority(self) -> int:
        return self[0] // SEQ_SPAN

    @property
    def seq(self) -> int:
        return self[0] % SEQ_SPAN

    @property
    def fn(self):
        return self[1]

    @property
    def label(self) -> str:
        return self[3]

    @property
    def cancelled(self) -> bool:
        return self[1] is None

    @property
    def active(self) -> bool:
        return self[1] is not None

    @property
    def _queue(self):
        q = self[4]
        return q if q.__class__ is EventQueue else None

    def cancel(self) -> None:
        """Mark the event so the queue discards it instead of firing it."""
        if self[1] is None:
            return
        self[1] = None
        q = self[4]
        if q.__class__ is EventQueue:
            # Pending: keep the queue's counters exact.  A post-delivery
            # cancel leaves the delivered marker (False) in place so the
            # mid-drain clear() reconciliation still counts the event as
            # delivered.
            self[4] = None
            q._cancelled += 1
            corpses = q._corpses + 1
            if corpses > 64 and corpses > len(q) and not q._draining:
                q._compact()
            else:
                q._corpses = corpses

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self[1] is None else "pending"
        return (
            f"<Event t={self[2]:.9f} prio={self[0] // SEQ_SPAN} "
            f"{self[3]!r} {state}>"
        )


class EventQueue:
    """A cancellable, bucketed priority queue of :class:`Event` objects.

    ``len()`` is derived — ``pushed - delivered - cancelled`` — so the
    push path maintains a single counter.  In exchange, delivery updates
    are *batched per instant* inside the storm stage of
    :meth:`repro.simcore.engine.Simulator.run`; the counters are exact at
    every instant boundary, and at every event boundary in the general
    stage (which the validation oracle observes).
    """

    __slots__ = (
        "_buckets",
        "_times",
        "_seq",
        "_delivered",
        "_cancelled",
        "_corpses",
        "_unsorted",
        "_draining",
        "_drain_bucket",
        "_clear_epoch",
        "_flushed",
    )

    def __init__(self) -> None:
        #: time -> Event (singleton instant) or list of Events.
        self._buckets: dict = {}
        #: Distinct pending timestamps (heapq; may hold stale entries
        #: for buckets already drained — consumers skip those).
        self._times: list = []
        self._seq = 0
        self._delivered = 0
        self._cancelled = 0
        #: Cancelled events still sitting in buckets awaiting lazy
        #: removal (skipped at drain, or dropped by :meth:`_compact`).
        self._corpses = 0
        #: Timestamps whose bucket may be out of (priority, seq) order;
        #: the drain sorts those once.  See the module docstring.
        self._unsorted: set = set()
        #: True while a run loop drains this queue: compaction would
        #: desynchronize the live bucket iteration, so it is skipped.
        self._draining = False
        #: The list bucket the storm stage is currently delivering with
        #: batched counters (None otherwise); lets a mid-drain clear()
        #: reconcile the in-flight deliveries.
        self._drain_bucket: Optional[list] = None
        #: Bumped by clear(); the storm stage detects a mid-bucket clear
        #: by comparing against the value snapshot at bucket start.
        self._clear_epoch = 0
        #: Deliveries of the interrupted bucket, counted by clear() for
        #: the storm stage to fold into ``events_processed``.
        self._flushed = 0

    def __len__(self) -> int:
        return self._seq - self._delivered - self._cancelled

    # -- push ----------------------------------------------------------
    def push(
        self,
        time: float,
        fn: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``fn`` at absolute ``time`` and return its handle."""
        seq = self._seq
        self._seq = seq + 1
        order = seq if priority == 0 else priority * SEQ_SPAN + seq
        # Built empty then extended in place: list.__iadd__ skips the
        # iterable-copy constructor, measurably cheaper on this path.
        ev = Event()
        ev += (order, fn, time, label, self)
        buckets = self._buckets
        b = buckets.get(time)
        if b is None:
            buckets[time] = ev
            heapq.heappush(self._times, time)
        elif type(b) is list:
            # An append keeps a sorted bucket sorted *iff* the current
            # tail does not outrank it.  The packed-order compare is the
            # exact condition — a priority push that still lands in
            # order (the common resched cascade: p5 after p5, or p5
            # after a tail of lower-priority wakeups) must NOT flag, or
            # every barrier-width instant pays one tail sort per event.
            # An already-flagged bucket is sorted at drain regardless,
            # so comparing only the tail stays sound.  A list bucket is
            # never empty (pop/_head/_compact prune emptied instants,
            # clear drops the dict wholesale), so the tail index is safe.
            if b[-1][0] > order:
                self._unsorted.add(time)
            b.append(ev)
        else:
            buckets[time] = [b, ev]
            if b[0] > order:
                self._unsorted.add(time)
        return ev

    # -- pop / peek ----------------------------------------------------
    def _head(self) -> Optional[Tuple[float, Any]]:
        """(time, bucket) of the earliest instant with a live event,
        dropping stale time entries and leading corpses on the way.
        List buckets are sorted if flagged, so ``bucket[0]`` (or the
        singleton itself) is the next event to fire."""
        buckets = self._buckets
        times = self._times
        while times:
            t = times[0]
            b = buckets.get(t)
            if b is None:
                heapq.heappop(times)
                continue
            if type(b) is not list:
                if b[1] is None:
                    heapq.heappop(times)
                    del buckets[t]
                    self._corpses -= 1
                    continue
                return t, b
            if t in self._unsorted:
                b.sort()
                self._unsorted.discard(t)
            while b and b[0][1] is None:
                del b[0]
                self._corpses -= 1
            if not b:
                heapq.heappop(times)
                del buckets[t]
                continue
            return t, b
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest pending event, skipping
        cancelled entries.  Returns ``None`` when the queue is
        exhausted."""
        head = self._head()
        if head is None:
            return None
        t, b = head
        if type(b) is not list:
            heapq.heappop(self._times)
            del self._buckets[t]
            ev = b
        else:
            ev = b[0]
            del b[0]
            if not b:
                heapq.heappop(self._times)
                del self._buckets[t]
        ev[4] = False
        self._delivered += 1
        return ev

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` if empty."""
        head = self._head()
        return None if head is None else head[0]

    # -- bulk operations ----------------------------------------------
    def clear(self) -> None:
        """Drop every pending event, marking each one cancelled so held
        handles stop reporting ``active``.

        Safe mid-drain: every list bucket is emptied *in place* (which
        ends the engine's live iteration), and if the storm stage was
        mid-bucket its already-delivered events — identified by the
        ``False`` queue marker, counted only from the registered drain
        bucket because the general stage's deliveries are already in the
        counters — are folded into ``_delivered`` here.  The epoch bump
        tells the storm stage to skip its own (now stale) batched
        bucket-end reconciliation.
        """
        drain_b = self._drain_bucket
        flushed = 0
        if drain_b is not None:
            for ev in drain_b:
                if ev[4] is False:
                    flushed += 1
        for b in self._buckets.values():
            if type(b) is list:
                for ev in b:
                    if ev[4].__class__ is EventQueue:
                        ev[1] = None
                        ev[4] = None
                b.clear()
            elif b[4].__class__ is EventQueue:
                b[1] = None
                b[4] = None
        self._buckets.clear()
        self._times.clear()
        self._unsorted.clear()
        self._delivered += flushed
        self._cancelled = self._seq - self._delivered
        self._corpses = 0
        if drain_b is not None:
            self._flushed += flushed
            self._clear_epoch += 1
            self._drain_bucket = None

    def _compact(self) -> None:
        """Drop cancelled corpses from every bucket and prune emptied
        instants.  A no-op while a run loop is draining (removal would
        desynchronize the live bucket iteration); the drain skips
        corpses at native list-iteration speed anyway, so deferring
        costs only their memory."""
        if self._draining:
            return
        survivors: dict = {}
        for t, b in self._buckets.items():
            if type(b) is list:
                keep = [ev for ev in b if ev[4].__class__ is EventQueue]
                if not keep:
                    continue
                survivors[t] = keep[0] if len(keep) == 1 else keep
            elif b[4].__class__ is EventQueue:
                survivors[t] = b
        self._buckets.clear()
        self._buckets.update(survivors)
        self._times[:] = list(survivors)
        heapq.heapify(self._times)
        self._unsorted &= set(survivors)
        self._corpses = 0

    # -- introspection -------------------------------------------------
    def iter_entries(self) -> Iterator[Tuple[float, Event]]:
        """Yield ``(time, event)`` for every pending event, in no
        particular order (the O(n) scan behind
        :meth:`live_count_check`)."""
        for t, b in self._buckets.items():
            if type(b) is list:
                for ev in b:
                    if ev[4].__class__ is EventQueue:
                        yield t, ev
            elif b[4].__class__ is EventQueue:
                yield t, b

    def live_count_check(self) -> Tuple[int, int]:
        """``(tracked, actual)`` pending counts — ``tracked`` is the
        derived count behind ``len()``, ``actual`` an O(n) bucket scan.
        The validate invariants assert they agree."""
        actual = sum(1 for _t, _ev in self.iter_entries())
        return len(self), actual
