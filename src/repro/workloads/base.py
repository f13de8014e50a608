"""Workload descriptions and the MPI job launcher.

A workload enumerates its ranks as :class:`RankSpec` objects — name,
program factory, performance profile, CPU — mirroring how
``mpirun`` + a host file lay processes out on the paper's OpenPower 710
(one MPI process per logical CPU, paper §IV-A).

:func:`launch_workload` instantiates the rank programs against a kernel
+ MPI runtime.  ``use_hpc=True`` makes every rank issue
``sched_setscheduler(SCHED_HPC)`` as its first action — the one-line
opt-in the paper requires from applications.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from repro.kernel.core_sched import Kernel
from repro.kernel.policies import SchedPolicy
from repro.kernel.task import Task
from repro.mpi.process import MPIRank
from repro.mpi.runtime import MPIRuntime
from repro.power5.perfmodel import CPU_BOUND, PerfProfile

#: A rank program factory: gets the rank's MPI handle, returns the
#: generator the kernel will drive.
ProgramFactory = Callable[[MPIRank], Generator]


@dataclass
class RankSpec:
    """One MPI process of a workload."""

    name: str
    factory: ProgramFactory
    profile: PerfProfile = CPU_BOUND
    #: The logical CPU the rank runs on for its whole life (the
    #: standard HPC deployment: one MPI process per logical CPU, paper
    #: §IV-A).  The launch rejects a rank without one.
    cpu: Optional[int] = None
    #: Ranks the paper's tables report on (workers, not helpers).
    measured: bool = True


class Workload(ABC):
    """A complete MPI application description."""

    name: str = "workload"

    @abstractmethod
    def rank_specs(self) -> List[RankSpec]:
        """The ranks to launch, in rank order."""

    def measured_names(self) -> List[str]:
        """Names of the ranks the paper's tables report on."""
        return [s.name for s in self.rank_specs() if s.measured]


@dataclass
class LaunchedWorkload:
    """Handles of a launched workload."""

    workload: Workload
    runtime: MPIRuntime
    tasks: Dict[str, Task] = field(default_factory=dict)


def _with_hpc_optin(factory: ProgramFactory) -> ProgramFactory:
    """Wrap a program so its first action is the SCHED_HPC opt-in."""

    def wrapped(mpi: MPIRank) -> Generator:
        def prog():
            yield mpi.setscheduler_hpc()
            yield from factory(mpi)

        return prog()

    return wrapped


def launch_workload(
    kernel: Kernel,
    workload: Workload,
    use_hpc: bool = False,
    runtime: Optional[MPIRuntime] = None,
) -> LaunchedWorkload:
    """Create, bind and start every rank of ``workload``."""
    runtime = runtime or MPIRuntime(kernel)
    launched = LaunchedWorkload(workload=workload, runtime=runtime)
    specs = workload.rank_specs()
    # Bind all ranks before starting any task so early sends resolve.
    pending = []
    for rank, spec in enumerate(specs):
        factory = _with_hpc_optin(spec.factory) if use_hpc else spec.factory
        mpi = MPIRank(runtime, rank)
        task = kernel.create_task(
            spec.name,
            program=None,
            policy=SchedPolicy.NORMAL,
            perf_profile=spec.profile,
        )
        task.program = factory(mpi)
        runtime.bind(rank, task)
        launched.tasks[spec.name] = task
        pending.append((task, spec.cpu))
    for task, cpu in pending:
        kernel.start_task(task, cpu=cpu)
    return launched
