"""Discrete-event simulation core.

The engine is deliberately small: a monotonic clock, a bucketed event
queue with stable tie-breaking, and cancellable event handles.  Everything
else in the stack (the simulated kernel, the POWER5 chip model, the MPI
runtime) is built as callbacks on top of this engine.

Time is a float measured in **seconds** of simulated machine time.
"""

from repro.simcore.events import Event, EventQueue
from repro.simcore.engine import Simulator, SimulationError
from repro.simcore.fastforward import ChainFamily, TimerChain

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "SimulationError",
    "ChainFamily",
    "TimerChain",
]
