"""PARAVER export tests."""

import pytest

from repro.trace.collector import TraceCollector
from repro.trace.paraver import (
    EVT_HW_PRIORITY,
    STATE_CODE,
    export_prv,
)
from repro.trace.records import State


class T:
    def __init__(self, pid, name):
        self.pid, self.name = pid, name
        self.is_idle_task = False


@pytest.fixture
def trace():
    tr = TraceCollector()
    a = T(1, "P1")
    tr.record(0.0, a, "run", cpu=0)
    tr.record(0.5, a, "hw_priority", priority=6)
    tr.record(1.0, a, "block", reason="mpi", wait=True)
    tr.record(2.0, a, "wake", cpu=0)
    return tr


def test_header_structure(trace):
    out = export_prv(trace, end_time=2.0)
    header = out.splitlines()[0]
    assert header.startswith("#Paraver")
    assert "2000000000_ns" in header  # 2 s in ns


def test_state_records_present(trace):
    out = export_prv(trace, end_time=2.0)
    state_lines = [l for l in out.splitlines() if l.startswith("1:")]
    assert len(state_lines) >= 2
    # running interval: state code 1, cpu0 -> field 2 is '1'
    assert any(l.endswith(f":{STATE_CODE[State.RUNNING]}") for l in state_lines)
    assert any(l.endswith(f":{STATE_CODE[State.WAITING]}") for l in state_lines)


def test_priority_event_exported(trace):
    out = export_prv(trace, end_time=2.0)
    ev_lines = [l for l in out.splitlines() if l.startswith("2:")]
    assert any(f":{EVT_HW_PRIORITY}:6" in l for l in ev_lines)


def test_records_sorted_by_time(trace):
    out = export_prv(trace, end_time=2.0)
    times = []
    for line in out.splitlines()[1:]:
        parts = line.split(":")
        times.append(int(parts[5]))
    assert times == sorted(times)


def test_empty_trace_exports_header_only():
    out = export_prv(TraceCollector(), end_time=1.0)
    assert out.splitlines()[0].startswith("#Paraver")
    assert len(out.strip().splitlines()) == 1
