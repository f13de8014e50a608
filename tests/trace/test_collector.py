"""Trace-collector tests against the live kernel."""

import pytest

from repro.experiments.common import build_kernel
from repro.kernel import Compute, Sleep
from repro.trace.records import State
from repro.trace.stats import compute_stats
from tests.conftest import compute_sleep_program


def test_collector_builds_timelines(kernel, make_compute_task):
    t = make_compute_task("w", iterations=2, work=0.05, pause=0.02, cpu=0)
    end = kernel.run()
    trace = kernel.trace
    trace.finish(end)
    tl = trace.timeline(t.pid)
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


def test_keep_events_false_skips_event_log(quiet_kernel):
    from repro.trace.collector import TraceCollector

    collector = TraceCollector(keep_events=False)
    quiet_kernel.trace = collector
    quiet_kernel.spawn("w", compute_sleep_program(2, 0.01, 0.01), cpu=0)
    end = quiet_kernel.run()
    assert collector.events == []
    collector.finish(end)
    assert collector.timelines  # timelines still built


def test_events_of_kind_refuses_a_dropped_event_log():
    """Without the raw stream there is no honest answer: an empty list
    would read as "no iterations" to iteration_series and friends."""
    from repro.trace.collector import TraceCollector

    collector = TraceCollector(keep_events=False)
    with pytest.raises(ValueError, match="keep_events"):
        collector.events_of_kind("iteration")


def _priority_run(keep_events):
    from repro.trace.collector import TraceCollector

    kernel = build_kernel()
    kernel.trace = TraceCollector(keep_events=keep_events)
    a = kernel.spawn("a", compute_sleep_program(3, 0.05, 0.01), cpu=0)
    b = kernel.spawn("b", compute_sleep_program(3, 0.05, 0.01), cpu=1)
    kernel.sim.run(until=0.01)
    kernel.set_hw_priority(a, 6)
    kernel.set_hw_priority(b, 3)
    kernel.sim.run(until=0.08)
    kernel.set_hw_priority(a, 4)
    kernel.run()
    return kernel.trace, a.pid, b.pid


def test_priority_changes_kept_without_event_log():
    kept, pid_a, pid_b = _priority_run(keep_events=True)
    dropped, _, _ = _priority_run(keep_events=False)
    assert dropped.events == []
    assert len(kept.priority_changes(pid_a)) == 2
    for pid in (None, pid_a, pid_b):
        assert dropped.priority_changes(pid) == kept.priority_changes(pid)
    assert kept.priority_changes() == kept.events_of_kind("hw_priority")


def test_state_accounting_sums_to_span(kernel, make_compute_task):
    make_compute_task("w", iterations=3, work=0.05, pause=0.03, cpu=0)
    end = kernel.run()
    stats = compute_stats(kernel.trace, end, names=["w"])
    s = stats["w"]
    assert s.running + s.ready + s.waiting == pytest.approx(s.span)
    assert s.running > 0 and s.waiting > 0
