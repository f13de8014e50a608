"""The reschedule batch and the ``Simulator.defer`` drain-ordering
contract underneath it.

``resched()`` flags a CPU in the simulator's one reschedule batch: any
number of flags for one CPU within an instant share a single entry (the
dedup guard on ``rq.resched_event``), and every CPU of every kernel on
the simulator flagged at that instant shares a single event.  The
direct-``__schedule`` paths (exit/block/migrate) *retire* a still-live
entry, so the batch does not schedule that CPU a second time.  Where the
run loop would act between two reschedules — a same-instant push of
lower priority, a stop — the batch hands the rest of its list back as a
new event, so the trace equals that of one event per CPU.
"""

import pytest

from repro.kernel import Kernel
from repro.kernel.policies import TaskState
from repro.kernel.syscalls import Compute, KernelRequest, Sleep, YieldCPU
from repro.power5.machine import Machine, MachineTopology
from repro.power5.perfmodel import TableDrivenModel
from repro.simcore import Simulator
from repro.simcore.engine import SimulationError
from tests.conftest import pure_compute_program


def _kernel(sim=None, trace=None):
    return Kernel(
        machine=Machine(MachineTopology(), TableDrivenModel()), sim=sim, trace=trace
    )


def _pending_rescheds(sim):
    return [ev for _, ev in sim.queue.iter_entries() if ev.label == "resched"]


def _program(*requests):
    def prog():
        for req in requests:
            yield req

    return prog()


def _count_schedules(k, log):
    """Record ``(kernel, cpu)`` for every ``__schedule`` of ``k``."""
    orig = k._schedule

    def schedule(cpu):
        log.append((k, cpu))
        orig(cpu)

    k._schedule = schedule


def test_same_instant_rescheds_share_one_entry_and_event():
    k = _kernel()
    k.spawn("a", pure_compute_program(0.5), cpu=0)
    k.spawn("b", pure_compute_program(0.5), cpu=0)

    observed = {}

    def storm():
        for _ in range(5):
            k.resched(0)
        observed["entries"] = list(k._resched_batch.entries)
        observed["events"] = len(_pending_rescheds(k.sim))

    k.sim.at(0.01, storm, priority=1)
    k.sim.run(until=0.02)
    assert observed["entries"] == [(k, k.rqs[0])]
    assert observed["events"] == 1
    assert k._resched_batch.entries == []


def test_direct_schedule_retires_the_entry():
    """migrate() on a running task reaches __schedule directly; the
    batch entry pending for the same CPU is retired and the batch does
    not schedule the CPU a second time."""
    k = _kernel()
    a = k.spawn("a", pure_compute_program(0.5), cpu=0)
    log = []
    seen = {}

    def provoke():
        _count_schedules(k, log)
        k.resched(0)
        entry = k.rqs[0].resched_event
        assert entry is not None
        k.migrate(a, 2)  # RUNNING task: direct _schedule(0) inside
        seen["retired"] = k.rqs[0].resched_event is None
        seen["in_handler"] = list(log)

    k.sim.at(0.01, provoke, priority=1)
    k.sim.run(until=0.02)
    assert seen["retired"] is True
    assert seen["in_handler"] == [(k, 0)]
    # The batch served only CPU 2 (the migrated task preempting idle).
    assert log == [(k, 0), (k, 2)]
    assert a.cpu == 2 and a.state == TaskState.RUNNING


def test_kernels_sharing_a_simulator_are_served_in_flag_order():
    sim = Simulator()
    k1, k2 = _kernel(sim), _kernel(sim)
    assert k1._resched_batch is k2._resched_batch
    log = []
    _count_schedules(k1, log)
    _count_schedules(k2, log)
    seen = {}

    def flag():
        for k, cpu in ((k1, 3), (k2, 0), (k1, 1), (k2, 2), (k1, 3)):
            k.resched(cpu)
        seen["events"] = len(_pending_rescheds(sim))

    sim.at(0.01, flag, priority=1)
    sim.run(until=0.02)
    assert seen["events"] == 1
    assert log == [(k1, 3), (k2, 0), (k1, 1), (k2, 2)]


def test_lower_priority_push_hands_the_rest_back():
    """Task 1's ``Sleep(1e-17)`` lands on the current instant (1.0 +
    1e-17 == 1.0) at priority 0.  One event per CPU would deliver that
    wakeup before the next reschedule; so must the batch."""
    trace = []

    class Recorder:
        def record(self, now, task, kind, **info):
            if now == 1.0 and not task.is_idle_task:
                trace.append(f"{kind} {task.name}")

    k = _kernel(trace=Recorder())
    k.spawn("1", _program(Sleep(1.0), Sleep(1e-17), Compute(0.01)), cpu=0)
    k.spawn("3", _program(Sleep(1.0), Compute(0.01)), cpu=2)
    k.spawn("2", _program(Sleep(1.0), Compute(0.01)), cpu=1)
    k.run()
    assert trace == [
        "wake 1", "wake 3", "wake 2",
        "run 1", "block 1", "wake 1", "run 3", "run 2", "run 1",
    ]
    assert (k.sim.now, k.context_switches) == (1.01, 14)


def test_stop_on_exit_leaves_later_cpus_flagged():
    """The last app task exits during its install; the run stops there,
    and the daemon flagged behind it stays queued and READY, as it does
    with one event per CPU."""
    k = _kernel()
    app = k.spawn("app", _program(Sleep(1.0)), cpu=0)
    daemon = k.spawn("daemon", _program(Sleep(1.0), Compute(0.5)), cpu=2, daemon=True)
    end = k.run()
    assert end == 1.0 and app.state == TaskState.EXITED
    assert daemon.state == TaskState.READY
    assert k.context_switches == 6
    assert k._resched_batch.entries == [(k, k.rqs[2])]
    assert len(_pending_rescheds(k.sim)) == 1


def test_stop_during_an_install_leaves_later_cpus_flagged():
    """``Simulator.stop()`` from inside an install stops the run after
    that install; the CPUs flagged behind it are served on resume."""

    class StopSim(KernelRequest):
        def execute(self, kernel, task):
            kernel.sim.stop()
            return True

    k = _kernel()
    a = k.spawn("a", _program(Sleep(1.0), StopSim(), Compute(0.01)), cpu=0)
    b = k.spawn("b", _program(Sleep(1.0), Compute(0.01)), cpu=1)
    c = k.spawn("c", _program(Sleep(1.0), Compute(0.01)), cpu=2)
    assert k.run() == 1.0
    states = (a.state, b.state, c.state)
    assert states == (TaskState.RUNNING, TaskState.READY, TaskState.READY)
    assert k.context_switches == 7
    assert (k.run(), k.context_switches) == (1.01, 12)
    assert {a.state, b.state, c.state} == {TaskState.EXITED}


def test_deferred_rate_drain_observes_coalesced_event():
    """The rate recompute deferred during the coalescing __schedule must
    drain at the boundary of the event that scheduled (before the clock
    moves and before the batch runs), seeing the final SMT state of the
    instant."""
    k = _kernel()
    a = k.spawn("a", pure_compute_program(0.5), cpu=0)

    order = []
    orig_drain = k._drain_rate_changes

    def drain():
        order.append(("drain", k.sim.now, len(k._dirty_cores)))
        orig_drain()

    k._drain_rate_changes = drain

    def provoke():
        k.resched(0)
        k.migrate(a, 2)
        order.append(("handler-done", k.sim.now))

    k.sim.at(0.01, provoke, priority=1)
    k.sim.run(until=0.02)
    # The drain ran exactly at the provoking event's boundary: same
    # instant, immediately after the handler returned, with the dirty
    # set intact (not flushed early by the batch).
    idx = order.index(("handler-done", 0.01))
    assert order[idx + 1][0] == "drain"
    assert order[idx + 1][1] == 0.01
    assert order[idx + 1][2] > 0
    assert k._dirty_cores == {}  # fully drained before the clock moved


def test_twin_run_migrate_under_pending_resched_identical():
    """End-to-end pin of the retired-entry path: the final clock,
    context-switch and migration counts match the values a run that
    delivered the duplicate as a no-op produced, so retiring it changes
    nothing observable."""
    k = _kernel()
    a = k.spawn("a", pure_compute_program(0.3), cpu=0)
    k.spawn("b", pure_compute_program(0.3), cpu=0)

    def provoke():
        k.resched(0)
        k.migrate(a, 2)

    k.sim.at(0.01, provoke, priority=1)
    end = k.run()
    assert (end, k.context_switches, k.migrations) == (
        0.14786114285714286,
        7,
        1,
    )


def test_yield_livelock_trips_the_event_limit_inside_the_batch():
    """A task that only yields reschedules itself forever within one
    instant, inside one batch event: the batch counts its entries
    against the engine's event limit, so the livelock still fails
    loudly."""
    def spin():
        while True:
            yield YieldCPU()

    k = _kernel()
    k.sim.max_events = 1000
    k.spawn("spin", spin(), cpu=0)
    with pytest.raises(SimulationError, match="event limit 1000"):
        k.run()
