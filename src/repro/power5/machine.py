"""Whole-machine topology: chips x cores x 2 contexts (logical CPUs).

The paper's testbed is an IBM OpenPower 710 with one POWER5 chip:
2 cores x 2 SMT contexts = 4 logical CPUs.  :class:`Machine` builds that
machine's cores, generalized to N chips; a chip only groups cores, so
the machine holds the cores directly.  Each task runs on the logical
CPU it was started on, so the kernel needs no scheduling domains over
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.power5.core import SMTContext, SMTCore
from repro.power5.perfmodel import PerformanceModel


@dataclass(frozen=True)
class MachineTopology:
    """Shape of the simulated machine (every core is 2-way SMT)."""

    chips: int = 1
    cores_per_chip: int = 2

    @property
    def n_cpus(self) -> int:
        return self.chips * self.cores_per_chip * 2


class Machine:
    """The hardware the simulated kernel runs on."""

    def __init__(
        self,
        topology: Optional[MachineTopology] = None,
        perf_model: Optional[PerformanceModel] = None,
    ) -> None:
        self.topology = topology or MachineTopology()
        t = self.topology
        # Core ``i`` holds logical CPUs ``2i`` and ``2i + 1``.  Topology
        # is immutable after construction; the orderings kernel
        # construction and the PMU read are built once here.
        self._cores: List[SMTCore] = [
            SMTCore(core_id=i, first_cpu_id=2 * i, perf_model=perf_model)
            for i in range(t.chips * t.cores_per_chip)
        ]
        self._contexts: Dict[int, SMTContext] = {
            ctx.cpu_id: ctx for core in self._cores for ctx in core.contexts
        }
        self._cpu_ids: tuple = tuple(sorted(self._contexts))

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    @property
    def n_cpus(self) -> int:
        return self.topology.n_cpus

    @property
    def cpu_ids(self) -> Sequence[int]:
        return self._cpu_ids

    def context(self, cpu_id: int) -> SMTContext:
        """The hardware context behind logical CPU ``cpu_id``."""
        return self._contexts[cpu_id]

    def cores(self) -> List[SMTCore]:
        """All physical cores, in id order."""
        return self._cores

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        t = self.topology
        return (
            f"<Machine {t.chips} chip(s) x {t.cores_per_chip} core(s) x "
            f"2 threads = {t.n_cpus} CPUs>"
        )
