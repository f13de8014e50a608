"""Shared fixtures: kernels, simple task programs, workload helpers."""

from __future__ import annotations

import pytest

from repro.experiments.common import build_kernel
from repro.kernel.core_sched import Kernel
from repro.kernel.syscalls import Compute, Sleep
from repro.kernel.tunables import Tunables
from repro.power5.machine import Machine, MachineTopology
from repro.power5.perfmodel import CPU_BOUND, TableDrivenModel


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


def tuned_kernel(**knobs) -> Kernel:
    """A kernel without tracing, built with a custom tunables record."""
    machine = Machine(MachineTopology(), TableDrivenModel())
    return Kernel(machine=machine, tunables=Tunables(**knobs))


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


@pytest.fixture
def make_compute_task(kernel):
    """Factory: spawn a compute/sleep task on the traced kernel."""

    def _make(name="t", iterations=1, work=0.1, pause=0.01, cpu=0, **kw):
        return kernel.spawn(
            name,
            compute_sleep_program(iterations, work, pause),
            cpu=cpu,
            perf_profile=kw.pop("perf_profile", CPU_BOUND),
            **kw,
        )

    return _make
