"""Tickless (NOHZ) behaviour and tick accounting."""

import pytest

from tests.conftest import pure_compute_program


def test_single_task_runs_tickless(quiet_kernel):
    """One runnable task per CPU: the NOHZ optimization must avoid
    per-millisecond ticks (~4800 over 4.8 simulated seconds): the run
    is its start and its one phase completion."""
    k = quiet_kernel
    k.spawn("t", pure_compute_program(10.0), cpu=0)
    end = k.run()
    assert end > 4.0
    assert k.sim.events_processed < 10  # << 4800 ticks


def test_competition_enables_ticks(quiet_kernel):
    k = quiet_kernel
    k.spawn("a", pure_compute_program(0.1), cpu=0)
    k.spawn("b", pure_compute_program(0.1), cpu=0)
    k.run()
    # CFS needs ticks to rotate the two hogs
    assert k.context_switches > 4


def test_tick_accounting_matches_wall_time(quiet_kernel):
    k = quiet_kernel
    a = k.spawn("a", pure_compute_program(0.5), cpu=0)
    b = k.spawn("b", pure_compute_program(0.5), cpu=0)
    end = k.run()
    total = a.sum_exec_runtime + b.sum_exec_runtime
    assert total == pytest.approx(end, rel=0.01)
