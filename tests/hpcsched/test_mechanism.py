"""Priority-mechanism tests (the architecture-dependent layer)."""

import pytest

from repro.hpcsched.mechanism import NullMechanism, POWER5Mechanism
from repro.kernel import Compute, Kernel
from repro.power5.machine import Machine, MachineTopology
from repro.power5.perfmodel import TableDrivenModel
from repro.power5.priorities import PriorityError
from tests.conftest import pure_compute_program


def test_power5_mechanism_sets_priority(quiet_kernel):
    k = quiet_kernel
    t = k.create_task("t", pure_compute_program(0.1))
    mech = POWER5Mechanism()
    mech.apply(k, t, 6)
    assert mech.read(t) == 6
    assert t.hw_priority == 6


def test_power5_mechanism_supervisor_range(quiet_kernel):
    k = quiet_kernel
    t = k.create_task("t", pure_compute_program(0.1))
    mech = POWER5Mechanism()
    for p in (1, 2, 3, 4, 5, 6):
        mech.apply(k, t, p)
    for p in (0, 7):
        with pytest.raises(PriorityError):
            mech.apply(k, t, p)


def test_power5_mechanism_affects_running_context(quiet_kernel):
    k = quiet_kernel
    t = k.spawn("t", pure_compute_program(1.0), cpu=0)
    k.sim.run(until=0.01)
    POWER5Mechanism().apply(k, t, 6)
    assert k.machine.context(0).priority == 6


def test_null_mechanism_records_without_effect(quiet_kernel):
    k = quiet_kernel
    t = k.spawn("t", pure_compute_program(1.0), cpu=0)
    k.sim.run(until=0.01)
    mech = NullMechanism()
    mech.apply(k, t, 6)
    assert t.hw_priority == 6
    # the hardware context was NOT touched
    assert int(k.machine.context(0).priority) == 4


def _sibling_finish_times(mech, between_runs=False):
    """Two equal computations on the SMT siblings of one core; ``mech``
    raises the first to priority 6 at 0.01 s, inside an event or (with
    ``between_runs``) between two ``run`` calls.  Returns both finish
    times."""
    k = Kernel(machine=Machine(MachineTopology(), TableDrivenModel()))
    finished = {}

    def prog(name):
        yield Compute(0.5)
        finished[name] = k.now

    a = k.spawn("a", prog("a"), cpu=0)
    k.spawn("b", prog("b"), cpu=1)
    if between_runs:
        k.sim.run(until=0.01)
        mech.apply(k, a, 6)
    else:
        k.sim.at(0.01, lambda: mech.apply(k, a, 6), priority=1)
    k.run()
    return finished["a"], finished["b"]


def test_power5_mechanism_is_effective():
    # POWER5 biases the core toward the raised sibling; Null records the
    # priority and changes nothing.
    a, b = _sibling_finish_times(POWER5Mechanism())
    assert a < b
    a, b = _sibling_finish_times(NullMechanism())
    assert a == b



def test_priority_set_between_runs_changes_the_rates():
    """Outside a run the rate change drains at once, so the raised
    sibling finishes first, exactly as when the change is an event."""
    a, b = _sibling_finish_times(POWER5Mechanism(), between_runs=True)
    assert a < b
    assert (a, b) == _sibling_finish_times(POWER5Mechanism())
