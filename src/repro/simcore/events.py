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
from typing import Any, Callable, Iterator, Tuple

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
    ``None`` after cancellation.  The delivered marker keeps a bucket
    scan from counting the consumed prefix of the bucket being drained
    as pending or as cancelled corpses.

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
            # cancel leaves the delivered marker (False) and the
            # counters untouched.
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
    push path maintains a single counter.  The only consumer is
    :meth:`repro.simcore.engine.Simulator.run`, which updates the
    delivered count per event, so ``len()`` is exact at every event
    boundary (the validation oracle asserts it at each delivery).
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
    )

    def __init__(self) -> None:
        #: time -> Event (singleton instant) or list of Events.
        self._buckets: dict = {}
        #: Distinct pending timestamps (heapq): exactly the keys of
        #: ``_buckets``, except the instant the run loop is draining.
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
            # never empty (the run loop and _compact prune emptied
            # instants), so the tail index is safe.
            if b[-1][0] > order:
                self._unsorted.add(time)
            b.append(ev)
        else:
            buckets[time] = [b, ev]
            if b[0] > order:
                self._unsorted.add(time)
        return ev

    # -- bulk operations ----------------------------------------------
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
