"""Whole-machine topology: chips -> cores -> contexts (logical CPUs).

The paper's testbed is an IBM OpenPower 710 with one POWER5 chip:
2 cores x 2 SMT contexts = 4 logical CPUs.  :class:`Machine` builds that
hierarchy, generalized to N chips.  Each task runs on the logical CPU it
was started on, so the kernel needs no scheduling domains over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.power5.chip import POWER5Chip
from repro.power5.core import SMTContext, SMTCore
from repro.power5.perfmodel import PerformanceModel


@dataclass(frozen=True)
class MachineTopology:
    """Shape of the simulated machine."""

    chips: int = 1
    cores_per_chip: int = 2
    threads_per_core: int = 2

    @property
    def n_cpus(self) -> int:
        return self.chips * self.cores_per_chip * self.threads_per_core


class Machine:
    """The hardware the simulated kernel runs on."""

    def __init__(
        self,
        topology: Optional[MachineTopology] = None,
        perf_model: Optional[PerformanceModel] = None,
    ) -> None:
        self.topology = topology or MachineTopology()
        self.chips: List[POWER5Chip] = []
        t = self.topology
        for chip_id in range(t.chips):
            self.chips.append(
                POWER5Chip(
                    chip_id=chip_id,
                    first_core_id=chip_id * t.cores_per_chip,
                    first_cpu_id=chip_id * t.cores_per_chip * t.threads_per_core,
                    perf_model=perf_model,
                    cores=t.cores_per_chip,
                    threads_per_core=t.threads_per_core,
                )
            )
        self._contexts: Dict[int, SMTContext] = {}
        for chip in self.chips:
            for ctx in chip.contexts:
                self._contexts[ctx.cpu_id] = ctx
        # Topology is immutable after construction; precompute the
        # orderings that kernel construction and the PMU would otherwise
        # re-derive per call.
        self._cpu_ids: tuple = tuple(sorted(self._contexts))
        self._cores: List[SMTCore] = [
            core for chip in self.chips for core in chip.cores
        ]

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
        """All physical cores, across chips, in id order."""
        return self._cores

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        t = self.topology
        return (
            f"<Machine {t.chips} chip(s) x {t.cores_per_chip} core(s) x "
            f"{t.threads_per_core} thread(s) = {t.n_cpus} CPUs>"
        )
