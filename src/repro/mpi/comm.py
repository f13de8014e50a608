"""Communicators and matching wildcards."""

from __future__ import annotations

from typing import FrozenSet, Sequence, Tuple

#: Wildcards for receive matching, as in MPI.
ANY_SOURCE = -1
ANY_TAG = -1


class Communicator:
    """A group of ranks sharing collectives (MPI_COMM_WORLD et al.)."""

    _next_id = 0

    def __init__(self, ranks: Sequence[int], name: str = "world") -> None:
        #: Ordered members.
        self.ranks: Tuple[int, ...] = tuple(ranks)
        #: The same members as a set: O(1) membership on every
        #: collective arrival, however many ranks the job has.
        self._members: FrozenSet[int] = frozenset(self.ranks)
        if len(self._members) != len(self.ranks):
            raise ValueError("duplicate ranks in communicator")
        self.name = name
        self.cid = Communicator._next_id
        Communicator._next_id += 1

    @property
    def size(self) -> int:
        return len(self.ranks)

    def __contains__(self, rank: int) -> bool:
        return rank in self._members

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Communicator {self.name!r} size={self.size}>"
