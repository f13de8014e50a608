"""Trace-collector tests against the live kernel."""

import pytest

from repro.kernel import Compute, Sleep
from repro.trace.records import State
from repro.trace.stats import compute_stats


def test_collector_builds_timelines(kernel, make_compute_task):
    t = make_compute_task("w", iterations=2, work=0.05, pause=0.02, cpu=0)
    end = kernel.run()
    trace = kernel.trace
    trace.finish(end)
    tl = trace.timelines[t.pid]
    states = [iv.state for iv in tl.intervals]
    assert State.RUNNING in states
    assert State.WAITING in states


def test_idle_tasks_not_traced(kernel, make_compute_task):
    make_compute_task("w", cpu=0)
    kernel.run()
    names = {tl.name for tl in kernel.trace.timelines.values()}
    assert not any(n.startswith("swapper") for n in names)


def test_by_name_lookup(kernel, make_compute_task):
    make_compute_task("alpha", cpu=0)
    kernel.run()
    assert kernel.trace.by_name("alpha").name == "alpha"
    with pytest.raises(KeyError):
        kernel.trace.by_name("missing")


def test_events_of_kind(kernel, make_compute_task):
    make_compute_task("w", iterations=3, cpu=0)
    kernel.run()
    blocks = kernel.trace.events_of_kind("block")
    assert len(blocks) == 3
    assert all(ev.kind == "block" for ev in blocks)


def test_priority_change_events(kernel, make_compute_task):
    t = make_compute_task("w", iterations=1, work=0.5, cpu=0)
    kernel.sim.run(until=0.01)
    kernel.set_hw_priority(t, 6)
    kernel.run()
    changes = kernel.trace.priority_changes(t.pid)
    assert len(changes) == 1
    assert changes[0].info["priority"] == 6


def test_state_accounting_sums_to_span(kernel, make_compute_task):
    make_compute_task("w", iterations=3, work=0.05, pause=0.03, cpu=0)
    end = kernel.run()
    stats = compute_stats(kernel.trace, end, names=["w"])
    s = stats["w"]
    assert s.running + s.ready + s.waiting == pytest.approx(s.span)
    assert s.running > 0 and s.waiting > 0
