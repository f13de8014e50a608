"""Shared fixtures: kernels, simple task programs, workload helpers."""

from __future__ import annotations

import pytest

from repro.experiments.common import build_kernel
from repro.kernel.core_sched import Kernel
from repro.kernel.syscalls import Compute, Sleep
from repro.power5.machine import Machine, MachineTopology
from repro.power5.perfmodel import CPU_BOUND, TableDrivenModel
from repro.trace.collector import TraceCollector


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/data/goldens.json from the current behaviour "
        "instead of asserting against it",
    )


@pytest.fixture
def kernel() -> Kernel:
    """A kernel on the paper's machine with tracing enabled."""
    return build_kernel()


@pytest.fixture
def quiet_kernel() -> Kernel:
    """A kernel without tracing (cheaper)."""
    machine = Machine(MachineTopology(), TableDrivenModel())
    return Kernel(machine=machine)


def compute_sleep_program(iterations: int, work: float, pause: float = 0.01):
    """A task that alternates compute and sleep phases."""

    def prog():
        for _ in range(iterations):
            yield Compute(work)
            yield Sleep(pause)

    return prog()


def pure_compute_program(work: float):
    def prog():
        yield Compute(work)

    return prog()


def use_stock_kernels(monkeypatch) -> None:
    """Build every kernel from here on with ``fastforward=False`` (the
    non-eliding reference), for twin runs through entry points that
    construct their kernels internally."""
    init = Kernel.__init__

    def stock_init(self, *args, **kwargs):
        kwargs["fastforward"] = False
        init(self, *args, **kwargs)

    monkeypatch.setattr(Kernel, "__init__", stock_init)


@pytest.fixture
def make_compute_task(kernel):
    """Factory: spawn a compute/sleep task on the traced kernel."""

    def _make(name="t", iterations=1, work=0.1, pause=0.01, cpu=None, **kw):
        return kernel.spawn(
            name,
            compute_sleep_program(iterations, work, pause),
            cpu=cpu,
            perf_profile=kw.pop("perf_profile", CPU_BOUND),
            **kw,
        )

    return _make
