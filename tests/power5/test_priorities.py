"""Exactness tests against the paper's Table II."""

import pytest

from repro.power5.priorities import (
    HWPriority,
    PrivilegeLevel,
    PriorityError,
    OR_NOP_REGISTER,
    can_set_priority,
    coerce_priority,
    required_privilege,
)


# Paper Table II: (priority, privilege, or-nop register)
TABLE2 = [
    (0, PrivilegeLevel.HYPERVISOR, None),
    (1, PrivilegeLevel.SUPERVISOR, 31),
    (2, PrivilegeLevel.USER, 1),
    (3, PrivilegeLevel.USER, 6),
    (4, PrivilegeLevel.USER, 2),
    (5, PrivilegeLevel.SUPERVISOR, 5),
    (6, PrivilegeLevel.SUPERVISOR, 3),
    (7, PrivilegeLevel.HYPERVISOR, 7),
]


@pytest.mark.parametrize("prio,priv,reg", TABLE2)
def test_table2_privilege(prio, priv, reg):
    assert required_privilege(prio) == priv


@pytest.mark.parametrize("prio,priv,reg", [r for r in TABLE2 if r[2] is not None])
def test_table2_or_nop_encoding(prio, priv, reg):
    assert OR_NOP_REGISTER[HWPriority(prio)] == reg


def test_priority_zero_has_no_or_nop():
    assert HWPriority.THREAD_OFF not in OR_NOP_REGISTER


def test_or_nop_registers_are_unique():
    regs = list(OR_NOP_REGISTER.values())
    assert len(regs) == len(set(regs)) == 7


def test_user_can_set_2_to_4_only():
    for p in range(8):
        assert can_set_priority(p, PrivilegeLevel.USER) == (2 <= p <= 4)


def test_supervisor_can_set_1_to_6():
    for p in range(8):
        assert can_set_priority(p, PrivilegeLevel.SUPERVISOR) == (1 <= p <= 6)


def test_hypervisor_can_set_everything():
    for p in range(8):
        assert can_set_priority(p, PrivilegeLevel.HYPERVISOR)


def test_coerce_rejects_out_of_range():
    with pytest.raises(PriorityError):
        coerce_priority(8)
    with pytest.raises(PriorityError):
        coerce_priority(-1)


def test_coerce_accepts_all_valid():
    for p in range(8):
        assert coerce_priority(p) == HWPriority(p)


def test_privilege_ordering():
    assert PrivilegeLevel.USER < PrivilegeLevel.SUPERVISOR < PrivilegeLevel.HYPERVISOR
