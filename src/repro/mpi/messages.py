"""Messages and the interconnect latency model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(frozen=True)
class LatencyModel:
    """Point-to-point delivery time: ``base + size / bandwidth``.

    Defaults approximate an intra-node MPICH-over-shared-memory path on
    2008-era hardware: a few microseconds of base latency and ~1 GB/s
    of copy bandwidth.
    """

    base: float = 5e-6
    bandwidth: float = 1e9  # bytes/second

    def __post_init__(self) -> None:
        # A non-positive delay delivers a message at or before its send
        # time, which nothing downstream diagnoses, so reject degenerate
        # models at construction.
        if not self.base > 0.0:
            raise ValueError(
                f"LatencyModel.base must be positive, got {self.base!r}"
            )
        if not self.bandwidth > 0.0:
            raise ValueError(
                f"LatencyModel.bandwidth must be positive, "
                f"got {self.bandwidth!r}"
            )

    def delay(self, size: int) -> float:
        """Delivery time for a ``size``-byte message."""
        return self.base + (size / self.bandwidth if size > 0 else 0.0)


@dataclass
class Message:
    """An in-flight or delivered point-to-point message."""

    src: int
    dst: int
    tag: int
    size: int
    send_time: float
    arrival_time: float
    payload: Any = None
    #: Monotonic sequence used to keep matching deterministic.
    seq: int = field(default=0)
    #: The sender's isend handle, completed at delivery time (models
    #: the rendezvous/ack completion semantics of MPI_Isend: even a
    #: rank whose partners are all waiting blocks for the handshake).
    isend_handle: Optional[Any] = None

    def matches(self, source: int, tag: int) -> bool:
        """Whether a receive posted for (source, tag) accepts this
        message (wildcards allowed)."""
        from repro.mpi.comm import ANY_SOURCE, ANY_TAG

        return (source == ANY_SOURCE or source == self.src) and (
            tag == ANY_TAG or tag == self.tag
        )
