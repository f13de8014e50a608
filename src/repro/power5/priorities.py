"""Hardware thread priorities and the ``or X,X,X`` interface (paper Table II).

A POWER5 context's hardware priority is an integer in ``0..7``:

====  ============  ==========  =============
Prio  Name          Privilege   or-nop
====  ============  ==========  =============
0     Thread off    Hypervisor  (none)
1     Very low      Supervisor  ``or 31,31,31``
2     Low           User        ``or 1,1,1``
3     Medium-low    User        ``or 6,6,6``
4     Medium        User        ``or 2,2,2``
5     Medium-high   Supervisor  ``or 5,5,5``
6     High          Supervisor  ``or 3,3,3``
7     Very high     Hypervisor  ``or 7,7,7``
====  ============  ==========  =============

The OS (supervisor) can set priorities 1..6; unprivileged user code can set
only 2..4; the hypervisor spans the full range.  The paper's HPCSched runs
in the kernel, i.e. at supervisor level, and confines itself to ``[4, 6]``
so the priority *difference* within a core never exceeds 2.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict


class PriorityError(ValueError):
    """Invalid hardware-priority operation (range or privilege)."""


class HWPriority(IntEnum):
    """POWER5 hardware thread priority levels."""

    THREAD_OFF = 0
    VERY_LOW = 1
    LOW = 2
    MEDIUM_LOW = 3
    MEDIUM = 4
    MEDIUM_HIGH = 5
    HIGH = 6
    VERY_HIGH = 7


class PrivilegeLevel(IntEnum):
    """Execution privilege, ordered so that higher values may do more."""

    USER = 0
    SUPERVISOR = 1
    HYPERVISOR = 2


#: or-nop register number encoding each settable priority (Table II).
#: ``or X,X,X`` with these register numbers is an architectural no-op that
#: only changes the issuing thread's hardware priority.
OR_NOP_REGISTER: Dict[HWPriority, int] = {
    HWPriority.VERY_LOW: 31,
    HWPriority.LOW: 1,
    HWPriority.MEDIUM_LOW: 6,
    HWPriority.MEDIUM: 2,
    HWPriority.MEDIUM_HIGH: 5,
    HWPriority.HIGH: 3,
    HWPriority.VERY_HIGH: 7,
}

#: Minimum privilege required to set each priority level (Table II).
_REQUIRED_PRIVILEGE: Dict[HWPriority, PrivilegeLevel] = {
    HWPriority.THREAD_OFF: PrivilegeLevel.HYPERVISOR,
    HWPriority.VERY_LOW: PrivilegeLevel.SUPERVISOR,
    HWPriority.LOW: PrivilegeLevel.USER,
    HWPriority.MEDIUM_LOW: PrivilegeLevel.USER,
    HWPriority.MEDIUM: PrivilegeLevel.USER,
    HWPriority.MEDIUM_HIGH: PrivilegeLevel.SUPERVISOR,
    HWPriority.HIGH: PrivilegeLevel.SUPERVISOR,
    HWPriority.VERY_HIGH: PrivilegeLevel.HYPERVISOR,
}

#: Default priority each context boots with (the paper's "normal" priority).
DEFAULT_PRIORITY = HWPriority.MEDIUM


#: Value -> member.  A lookup hashes exactly as ``HWPriority(value)``
#: does (``4``, ``4.0`` and ``HWPriority.MEDIUM`` all find MEDIUM), at
#: about a twentieth of the enum call's cost; every context switch pays
#: one (``SMTContext.load``).
PRIORITY_OF: Dict[int, HWPriority] = {int(p): p for p in HWPriority}


def coerce_priority(value: int) -> HWPriority:
    """Validate and convert an integer to :class:`HWPriority`."""
    try:
        return PRIORITY_OF[value]
    except (KeyError, TypeError) as exc:
        raise PriorityError(f"hardware priority {value!r} not in 0..7") from exc


def required_privilege(priority: int) -> PrivilegeLevel:
    """Minimum privilege level required to set ``priority`` (Table II)."""
    return _REQUIRED_PRIVILEGE[coerce_priority(priority)]


def can_set_priority(priority: int, privilege: PrivilegeLevel) -> bool:
    """Whether code at ``privilege`` may set ``priority``."""
    return privilege >= required_privilege(priority)
