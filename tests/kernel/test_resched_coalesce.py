"""Slotted resched coalescing and the ``Simulator.defer`` drain-ordering
contract underneath it.

``resched()`` is the same-slot collapse: any number of reschedule
requests for one CPU within one delivery slot share a single canonical
event (the dedup guard on ``rq.resched_event``).  The
direct-``__schedule`` paths (exit/block/migrate) additionally *cancel*
a still-pending canonical event — it would deliver as a
``need_resched=False`` no-op — and the deferred rate recompute must
observe the instant's final state at the boundary of the event that did
the scheduling, not ride on the elided duplicate.
"""

from repro.kernel import Kernel
from repro.kernel.policies import TaskState
from repro.power5.machine import Machine, MachineTopology
from repro.power5.perfmodel import TableDrivenModel
from tests.conftest import pure_compute_program


def _kernel():
    return Kernel(machine=Machine(MachineTopology(), TableDrivenModel()))


def _pending_rescheds(sim, cpu):
    label = f"resched/{cpu}"
    return [ev for _, ev in sim.queue.iter_entries() if ev.label == label]


def test_same_slot_rescheds_collapse_to_one_event():
    k = _kernel()
    k.spawn("a", pure_compute_program(0.5), cpu=0)
    k.spawn("b", pure_compute_program(0.5), cpu=0)

    observed = {}

    def storm():
        for _ in range(5):
            k.resched(0)
        observed["pending"] = len(_pending_rescheds(k.sim, 0))

    k.sim.at(0.01, storm, priority=1)
    k.sim.run(until=0.02)
    assert observed["pending"] == 1


def test_direct_schedule_cancels_pending_duplicate_fastcore():
    """migrate() on a running task reaches __schedule directly; a
    resched event pending for the same slot is the elided duplicate —
    it is cancelled and never fires."""
    k = _kernel()
    a = k.spawn("a", pure_compute_program(0.5), cpu=0)

    fires = []
    orig_fire = k._resched_fire
    k._resched_fire = lambda cpu: (fires.append(cpu), orig_fire(cpu))[1]

    seen = {}

    def provoke():
        fires.clear()  # drop boot-time rescheds; watch this slot only
        k.resched(0)
        dup = k.rqs[0].resched_event
        assert dup is not None and not dup.cancelled
        k.migrate(a, 2)  # RUNNING task: direct _schedule(0) inside
        seen["dup_cancelled"] = dup.cancelled
        seen["slot_cleared"] = k.rqs[0].resched_event is not dup
        seen["fires_in_handler"] = list(fires)

    k.sim.at(0.01, provoke, priority=1)
    k.sim.run(until=0.02)
    assert seen["dup_cancelled"] is True
    assert seen["slot_cleared"] is True
    # A fresh resched may legitimately re-arm during/after the direct
    # __schedule, but the cancelled duplicate itself never delivers —
    # at most one post-handler fire per CPU (the re-armed canonical).
    assert not seen["fires_in_handler"]
    assert fires.count(0) <= 1
    assert a.cpu == 2 and a.state in (TaskState.READY, TaskState.RUNNING)


def test_deferred_rate_drain_observes_coalesced_event():
    """The rate recompute deferred during the coalescing __schedule must
    drain at the boundary of the event that scheduled (before the clock
    moves and before any duplicate's slot), seeing the final SMT state
    of the instant."""
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
    # set intact (not flushed early by the elided duplicate's slot).
    idx = order.index(("handler-done", 0.01))
    assert order[idx + 1][0] == "drain"
    assert order[idx + 1][1] == 0.01
    assert order[idx + 1][2] > 0
    assert k._dirty_cores == {}  # fully drained before the clock moved


def test_twin_run_migrate_under_pending_resched_identical():
    """End-to-end pin of the coalesced path: the final clock,
    context-switch and migration counts match the values a run that
    delivered the duplicate as a no-op produced, so cancelling it
    changes nothing observable."""
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
