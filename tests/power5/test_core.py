"""SMT core / context model tests."""

import pytest

from repro.power5.core import SMTCore
from repro.power5.perfmodel import CPU_BOUND, TableDrivenModel
from repro.power5.priorities import HWPriority, PriorityError


@pytest.fixture
def core():
    return SMTCore(core_id=0, first_cpu_id=0, perf_model=TableDrivenModel())


def test_core_has_two_contexts(core):
    assert len(core.contexts) == 2
    assert core.contexts[0].cpu_id == 0
    assert core.contexts[1].cpu_id == 1


def test_strictly_two_way_smt():
    with pytest.raises(TypeError, match="threads"):
        SMTCore(core_id=0, first_cpu_id=0, threads=4)


def test_sibling_linkage(core):
    a, b = core.contexts
    assert a.core is b.core is core
    assert (a.thread_index, b.thread_index) == (0, 1)
    assert core.contexts[1 - a.thread_index] is b
    assert core.contexts[1 - b.thread_index] is a


def test_contexts_boot_at_medium_priority(core):
    for ctx in core.contexts:
        assert ctx.priority == HWPriority.MEDIUM
        assert not ctx.busy


def test_load_sets_task_priority_busy(core):
    ctx = core.contexts[0]
    ctx.load("task", 6)
    assert ctx.task == "task"
    assert ctx.priority == HWPriority.HIGH
    assert ctx.busy


def test_idle_drops_to_snooze_priority(core):
    ctx = core.contexts[0]
    ctx.load("task", 6)
    ctx.idle()
    assert ctx.task is None
    assert not ctx.busy
    assert ctx.priority == HWPriority.VERY_LOW


def test_context_speed_equal_priorities(core):
    core.contexts[0].load("a", 4)
    core.contexts[1].load("b", 4)
    assert core.context_speed(0, CPU_BOUND) == pytest.approx(1.0)
    assert core.context_speed(1, CPU_BOUND) == pytest.approx(1.0)


def test_context_speed_with_priority_difference(core):
    core.contexts[0].load("a", 6)
    core.contexts[1].load("b", 4)
    assert core.context_speed(0, CPU_BOUND) == pytest.approx(
        CPU_BOUND.dprio_speed[2]
    )
    assert core.context_speed(1, CPU_BOUND) == pytest.approx(
        CPU_BOUND.dprio_speed[-2]
    )


def test_context_speed_st_mode_when_sibling_idle(core):
    core.contexts[0].load("a", 4)
    assert core.context_speed(0, CPU_BOUND) == pytest.approx(CPU_BOUND.st_speedup)


def test_set_priority_rejects_invalid(core):
    with pytest.raises(PriorityError):
        core.contexts[0].set_priority(9)


@pytest.mark.parametrize("bad", [8, -1, "4"])
def test_load_and_set_priority_reject_invalid(core, bad):
    ctx = core.contexts[0]
    with pytest.raises(PriorityError):
        ctx.load("task", bad)
    with pytest.raises(PriorityError):
        ctx.set_priority(bad)


def test_load_and_set_priority_store_the_member(core):
    ctx = core.contexts[0]
    for prio in HWPriority:
        ctx.load("task", int(prio))
        assert ctx.priority is prio
        ctx.idle()
        ctx.set_priority(int(prio))
        assert ctx.priority is prio
