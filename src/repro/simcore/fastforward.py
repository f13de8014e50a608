"""Fast-forward engine: closed-form elision of provably-inert timers.

Between scheduler decision points the simulation's state evolves in
closed form: compute phases progress at piecewise-constant fluid rates
(banked exactly by ``Task.bank_progress`` at the next rate change) and
periodic timers re-arm along a fixed arithmetic chain.  A timer fire
whose outcome is *predetermined* — it will observe nothing actionable
and merely re-arm itself — therefore does not need to be executed at
all: its effect on every future observable is the identity.

This module is that elision as a reusable mechanism:

* A :class:`TimerChain` is one periodic timer (one CPU's balance
  timer).  It is either *armed* (a real event in the queue —
  indistinguishable from the stock chain) or *parked* (no event; only
  the next chain point is remembered).
* A chain may be parked only while its family's **inertness witness**
  holds: a predicate over owner state proving the fire's body is a
  no-op (for a balance round: nothing queued anywhere, or no
  migratable task).  One witness covers every chain of a family.  The
  owner must invalidate eagerly: every state transition that can break
  the witness (a run queue's 0→1 edge, a migratable task appearing)
  calls back into the family, which re-arms each parked chain at its
  first chain point at or after ``now``.
* Re-arm arithmetic is **bit-exact**: the walk repeats the serial
  re-arms' ``t += interval`` float accumulation from the parked anchor,
  so a reinstated fire lands at exactly the instant the serial chain
  would have fired.  Skipped points are no-op fires by construction
  (the witness held for the whole parked span — it can only break via
  an invalidation edge, which un-parks immediately).
* A chain point landing exactly on ``now`` is ambiguous: did the serial
  fire precede or follow the event that broke the witness?  The queue
  orders same-instant events by priority, so the walk compares the
  chain's priority against :attr:`Simulator.cur_event_prio`: if the
  chain fires *earlier* (lower priority value) it would have observed
  the still-inert pre-edge state — the point is treated as already
  elided; otherwise the chain is re-armed at ``now`` and fires after
  the current event, exactly as the serial queue would order it.
  (Equal priorities keep the re-arm-at-now behaviour; the only such
  collision is two balance fires at one instant, and balance rounds
  on distinct kernels touch disjoint state, so they commute.)
* Chains whose serial twin can *die* (the balance chain stops re-arming
  once ``live_tasks`` hits zero) record the death instant via
  :meth:`ChainFamily.mark_dead`; a later revival calls
  :meth:`ChainFamily.reap`, which kills exactly the parked chains that
  had a chain point inside the dead window — the points at which the
  serial fire would have found ``live_tasks <= 0`` and returned without
  re-arming.
* A tunable change re-times the chain: serial fires *before* the change
  re-arm with the old interval and the first fire *after* it adopts the
  new one.  :meth:`ChainFamily.retime` (driven from the owner's
  ``Tunables.subscribe`` refresh, which runs synchronously inside
  ``set()``) walks every parked anchor forward with the **old** interval
  up to the change instant, then swaps the interval — reproducing that
  split exactly.

Elision is on by default.  ``Kernel(fastforward=False)`` builds the
stock always-armed chains instead: the non-eliding reference that the
twin-run elision tests compare against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.engine import Simulator


class TimerChain:
    """One periodic timer chain (e.g. one CPU's balance timer).

    ``event`` is the pending queue event while armed and ``None`` while
    parked (or mid-fire); ``next_time`` is the next chain point — the
    instant the serial chain's next fire would land on — maintained by
    the owner's fire wrapper and by the family's walk helpers.
    """

    __slots__ = ("key", "label", "fire", "next_time", "event", "family")

    def __init__(
        self, key: Any, label: str, anchor: float, family: "ChainFamily"
    ) -> None:
        self.key = key
        self.label = label
        self.fire: Callable[[], Any] = _unset_fire
        self.next_time = anchor
        self.event: Optional[Any] = None
        self.family = family


def _unset_fire() -> None:  # pragma: no cover - programming error guard
    raise RuntimeError("TimerChain.fire was never assigned")


class ChainFamily:
    """All chains of one owner sharing interval, priority, inertness
    witness and re-arm arithmetic (a kernel's balance timers).

    The owner provides the fire wrappers (which decide park vs. arm at
    each fire with the exact serial guards) and calls
    :meth:`unpark_ready` from its witness-breaking edges.  The family
    owns the arithmetic: bit-exact walks, dead-window reaping, tunable
    re-timing.
    """

    __slots__ = (
        "sim", "interval", "priority", "inert", "chains", "parked",
        "dead_at", "elided",
    )

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        priority: int,
        inert: Callable[[], bool],
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.priority = priority
        #: The witness: true while every fire of every chain would be a
        #: no-op re-arm.
        self.inert = inert
        self.chains: Dict[Any, TimerChain] = {}
        #: Number of currently-parked chains (fast guard for edge hooks).
        self.parked = 0
        #: Instant the owner's chains became collectively dead (e.g.
        #: ``live_tasks`` hit 0) — ``None`` while alive.  See ``reap``.
        self.dead_at: Optional[float] = None
        #: Fires skipped analytically (observability accounting).
        self.elided = 0

    # -- construction ---------------------------------------------------
    def add(self, key: Any, label: str, anchor: float) -> TimerChain:
        """Create a chain anchored at absolute time ``anchor`` (not yet
        armed nor parked; the caller assigns ``fire`` then picks one)."""
        chain = TimerChain(key, label, anchor, self)
        self.chains[key] = chain
        return chain

    def arm(self, chain: TimerChain) -> None:
        """Push the chain's next fire on the queue (stock behaviour)."""
        chain.event = self.sim.at(
            chain.next_time, chain.fire, priority=self.priority,
            label=chain.label,
        )

    # -- fire-time transitions (called from the owner's wrappers) -------
    def park(self, chain: TimerChain) -> None:
        """Park a chain instead of (re-)arming it: the witness holds, so
        every fire until the next invalidation edge is provably a no-op
        re-arm.  Also used at arm time for chains born inert (e.g. every
        task pinned when the balance chains start) — such a chain never
        touches the queue at all."""
        self.parked += 1

    def kill(self, chain: TimerChain) -> None:
        """Called by a fire wrapper when the serial chain would die
        (it returns without re-arming)."""
        del self.chains[chain.key]

    # -- invalidation ---------------------------------------------------
    def unpark_ready(self) -> None:
        """Reinstate every parked chain once the witness no longer holds.

        Called from the owner's witness-breaking edges (inside the event
        that broke the witness, before any same-instant chain fire with
        a later priority could have run).  Reinstating touches only the
        queue and the family, never the owner state the witness reads,
        so one test covers the whole family.
        """
        if not self.parked or self.inert():
            return
        for chain in list(self.chains.values()):
            if chain.event is None:
                self._reinstate(chain)

    def _reinstate(self, chain: TimerChain) -> None:
        """Walk the parked chain to its first not-yet-elided chain point
        at or after ``now`` and re-arm there — or kill it if a point
        fell inside a dead window.  The walk repeats the serial re-arms'
        ``t += interval`` float accumulation, so the landing instant is
        bit-identical to the serial fire's."""
        sim = self.sim
        now = sim.now
        t = chain.next_time
        interval = self.interval
        dead_at = self.dead_at
        elided = 0
        while t < now:
            if dead_at is not None and t >= dead_at:
                self.parked -= 1
                del self.chains[chain.key]
                return
            t += interval
            elided += 1
        if t == now:
            # Same-instant tie: the serial fire at (now, self.priority)
            # ran before the current event iff its priority is lower —
            # in which case it observed the pre-edge (inert) state and
            # this point is already elided.
            prio = sim.cur_event_prio
            if prio is not None and self.priority < prio:
                if dead_at is not None and t >= dead_at:
                    self.parked -= 1
                    del self.chains[chain.key]
                    return
                t += interval
                elided += 1
        self.elided += elided
        self.parked -= 1
        chain.next_time = t
        chain.event = sim.at(
            t, chain.fire, priority=self.priority, label=chain.label
        )

    # -- dead windows ---------------------------------------------------
    def mark_dead(self, now: float) -> None:
        """Record that the serial chains stopped re-arming at ``now``
        (first death instant wins; cleared by :meth:`reap`)."""
        if self.dead_at is None:
            self.dead_at = now

    def reap(self, now: float) -> None:
        """Close a dead window at revival time: kill exactly the parked
        chains whose next serial fire fell inside ``[dead_at, now)`` —
        where the serial fire would have found the owner dead and
        returned without re-arming — and advance the survivors' anchors
        past the window."""
        dead_at = self.dead_at
        self.dead_at = None
        if dead_at is None:
            return
        interval = self.interval
        for chain in list(self.chains.values()):
            if chain.event is not None:
                continue  # armed: its own fire performs the dead check
            t = chain.next_time
            elided = 0
            killed = False
            while t < now:
                if t >= dead_at:
                    killed = True
                    break
                t += interval
                elided += 1
            if killed:
                self.parked -= 1
                del self.chains[chain.key]
            else:
                chain.next_time = t
                self.elided += elided

    # -- tunable changes ------------------------------------------------
    def retime(self, new_interval: float) -> None:
        """Adopt a changed interval.

        Serial chains re-arm with the interval read *at fire time*, so
        fires before the change instant use the old value and the first
        fire after it uses the new one.  Parked anchors are therefore
        walked forward with the **old** interval up to ``now`` (the
        change instant — tunable subscribers run synchronously inside
        ``set()``) before the family adopts the new interval; armed
        chains need nothing (their next re-arm reads the new value).
        """
        if new_interval == self.interval:
            return
        now = self.sim.now
        old = self.interval
        dead_at = self.dead_at
        for chain in list(self.chains.values()):
            if chain.event is not None:
                continue
            t = chain.next_time
            elided = 0
            killed = False
            while t < now:
                if dead_at is not None and t >= dead_at:
                    killed = True
                    break
                t += old
                elided += 1
            if killed:
                self.parked -= 1
                del self.chains[chain.key]
            else:
                chain.next_time = t
                self.elided += elided
        self.interval = new_interval

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<ChainFamily interval={self.interval} prio={self.priority} "
            f"chains={len(self.chains)} parked={self.parked} "
            f"elided={self.elided}>"
        )
