"""IBM POWER5 processor model.

The POWER5 is a dual-core chip whose cores are 2-way SMT.  Each hardware
thread (*context*) carries a **hardware thread priority** in ``0..7`` that
biases the core's instruction-decode arbitration: every window of ``R``
cycles the lower-priority context receives 1 decode cycle and the higher
priority context receives ``R - 1``, with ``R = 2**(|dP| + 1)`` (paper
Table I).  Priorities 0, 1 and 7 have special semantics (thread off,
background thread, single-thread mode).

This package models exactly the pieces the paper's scheduler interacts
with: the priority registers and their privilege rules (Table II), the
decode-share arithmetic (Table I), the machine topology (cores of two
contexts each) and pluggable performance models translating a decode share
into a task execution rate.
"""

from repro.power5.priorities import (
    HWPriority,
    PrivilegeLevel,
    PriorityError,
    OR_NOP_REGISTER,
    required_privilege,
    can_set_priority,
)
from repro.power5.decode import (
    decode_window,
    decode_cycles,
    decode_shares,
    DECODE_TABLE,
)
from repro.power5.perfmodel import (
    PerformanceModel,
    DecodeShareModel,
    TableDrivenModel,
    PerfProfile,
    CPU_BOUND,
    MEM_BOUND,
    MIXED,
)
from repro.power5.core import SMTCore, SMTContext
from repro.power5.machine import Machine, MachineTopology

__all__ = [
    "HWPriority",
    "PrivilegeLevel",
    "PriorityError",
    "OR_NOP_REGISTER",
    "required_privilege",
    "can_set_priority",
    "decode_window",
    "decode_cycles",
    "decode_shares",
    "DECODE_TABLE",
    "PerformanceModel",
    "DecodeShareModel",
    "TableDrivenModel",
    "PerfProfile",
    "CPU_BOUND",
    "MEM_BOUND",
    "MIXED",
    "SMTCore",
    "SMTContext",
    "Machine",
    "MachineTopology",
]
