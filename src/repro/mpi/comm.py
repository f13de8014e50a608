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
        #: Ordered members (``split`` relies on order).
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

    def split(self, color_of) -> "dict":
        """MPI_Comm_split: partition ranks by ``color_of(rank)``.

        Returns ``{color: Communicator}``; every member must use the
        *same* returned communicator objects (split once at the root of
        the program, not per rank).
        """
        groups: dict = {}
        for rank in self.ranks:
            groups.setdefault(color_of(rank), []).append(rank)
        return {
            color: Communicator(ranks, name=f"{self.name}/split{color}")
            for color, ranks in groups.items()
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Communicator {self.name!r} size={self.size}>"
