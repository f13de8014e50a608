"""Simulated MPI runtime.

MPI ranks are kernel tasks whose programs yield MPI operations; the
runtime turns those into the blocking/wakeup behaviour the scheduler
observes (the paper's tasks "sleep while waiting for an incoming
message and need to be woken up as soon as the message arrives", §V-D).

Semantics implemented:

* eager point-to-point ``send``/``recv`` with (source, tag) matching,
  ``ANY_SOURCE``/``ANY_TAG`` wildcards and per-channel FIFO ordering,
* non-blocking ``isend``/``irecv`` returning request handles and
  ``waitall`` (BT-MZ's neighbor-exchange pattern),
* collectives: ``barrier`` (MetBench's synchronization), ``bcast``
  and ``allreduce`` with log2-tree latency models,
* a configurable latency model (base latency + size/bandwidth).
"""

from repro.mpi.comm import Communicator, ANY_SOURCE, ANY_TAG
from repro.mpi.messages import Message, LatencyModel
from repro.mpi.requests import RequestHandle
from repro.mpi.runtime import MPIRuntime
from repro.mpi.process import MPIRank

__all__ = [
    "Communicator",
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "LatencyModel",
    "RequestHandle",
    "MPIRuntime",
    "MPIRank",
]
