"""OS noise daemons — the extrinsic imbalance source (paper §I, [9]).

System daemons and kernel threads periodically steal the CPU from HPC
tasks.  Under CFS an HPC task must *share* with them (and a waking task
with accumulated vruntime does not win wakeup preemption against a
fresh daemon, so it also waits out daemon bursts — the scheduler
latency of §V-D).  Under SCHED_HPC the class ordering starves the
daemons whenever HPC work is runnable.

A :class:`NoiseDaemons` config spawns one CFS daemon per CPU with a
given duty cycle; daemons are marked ``daemon=True`` so the simulation
still terminates when the application does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

import numpy as np

from repro.kernel.core_sched import Kernel
from repro.kernel.syscalls import Compute, Sleep
from repro.kernel.task import Task
from repro.power5.perfmodel import CPU_BOUND


@dataclass
class NoiseDaemons:
    """Per-CPU periodic daemon description."""

    #: Mean period between daemon activations (seconds).
    period: float = 0.010
    #: Mean burst length per activation (seconds of work at baseline
    #: speed); duty cycle = burst / period.
    burst: float = 0.0007
    #: Relative jitter applied to period and burst (uniform +-).
    jitter: float = 0.5
    seed: int = 97

    @property
    def duty(self) -> float:
        return self.burst / self.period


def _daemon_program(cfg: NoiseDaemons, rng: np.random.Generator) -> Generator:
    def prog():
        while True:
            j1 = 1.0 + cfg.jitter * (2.0 * rng.random() - 1.0)
            j2 = 1.0 + cfg.jitter * (2.0 * rng.random() - 1.0)
            yield Compute(cfg.burst * j1)
            yield Sleep(max(1e-5, cfg.period * j2 - cfg.burst * j1))

    return prog()


def spawn_noise(
    kernel: Kernel,
    cfg: Optional[NoiseDaemons] = None,
    cpus: Optional[Sequence[int]] = None,
) -> List[Task]:
    """Start one noise daemon per CPU; returns the daemon tasks."""
    cfg = cfg or NoiseDaemons()
    cpus = list(cpus) if cpus is not None else list(kernel.machine.cpu_ids)
    rng = np.random.default_rng(cfg.seed)
    tasks = []
    for cpu in cpus:
        task = kernel.create_task(
            name=f"kdaemon/{cpu}",
            program=_daemon_program(cfg, rng),
            perf_profile=CPU_BOUND,
            daemon=True,
        )
        kernel.start_task(task, cpu=cpu)
        tasks.append(task)
    return tasks
