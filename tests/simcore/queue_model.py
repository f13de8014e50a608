"""Sorted-list reference model of the event-queue contract.

The model is deliberately naive: a plain list of ``(time, priority,
seq)`` entries with cancel flags, filtered and sorted on every query.
It states the contract the bucketed :class:`repro.simcore.events.EventQueue`
must meet as ``Simulator.run`` drains it — delivery order ``(time,
priority, seq)``, cancelled entries never surface, exact pending count —
with no structure the implementation could share a bug with.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Tuple


class ModelEvent:
    """One model entry; ``cancel()`` only flags it."""

    __slots__ = ("time", "priority", "seq", "fn", "cancelled")

    def __init__(
        self, time: float, priority: int, seq: int, fn: Callable[[], Any]
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class ModelQueue:
    """The queue operations the engine relies on, over a sorted list;
    ``pop`` is the engine's next delivery."""

    def __init__(self) -> None:
        self.entries: List[ModelEvent] = []
        self._seq = 0

    def push(
        self, time: float, fn: Callable[[], Any], priority: int = 0
    ) -> ModelEvent:
        ev = ModelEvent(time, priority, self._seq, fn)
        self._seq += 1
        self.entries.append(ev)
        return ev

    def _live(self) -> List[ModelEvent]:
        return sorted(
            (ev for ev in self.entries if not ev.cancelled),
            key=lambda ev: (ev.time, ev.priority, ev.seq),
        )

    def pop(self) -> Optional[ModelEvent]:
        live = self._live()
        if not live:
            return None
        self.entries = [ev for ev in self.entries if ev is not live[0]]
        return live[0]

    def compact(self) -> None:
        self.entries = [ev for ev in self.entries if not ev.cancelled]

    def iter_entries(self) -> Iterator[Tuple[float, ModelEvent]]:
        for ev in self._live():
            yield ev.time, ev

    def __len__(self) -> int:
        return len(self._live())
