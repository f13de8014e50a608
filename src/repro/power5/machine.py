"""Whole-machine topology: chips -> cores -> contexts (logical CPUs).

The paper's testbed is an IBM OpenPower 710 with one POWER5 chip:
2 cores x 2 SMT contexts = 4 logical CPUs.  :class:`Machine` builds that
hierarchy (generalized to N chips) and derives the **scheduling domains**
the Linux workload balancer operates on: context level (the 2 CPUs of a
core), core level (the cores of a chip) and chip level (all chips).
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
        # orderings that hot paths (wake placement, balancing, kernel
        # construction) would otherwise re-derive per call.
        self._cpu_ids: tuple = tuple(sorted(self._contexts))
        self._cores: List[SMTCore] = [
            core for chip in self.chips for core in chip.cores
        ]
        self._domains: Optional[Dict[str, List[List[int]]]] = None

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

    def core_of(self, cpu_id: int) -> SMTCore:
        """The physical core owning logical CPU ``cpu_id``."""
        return self._contexts[cpu_id].core

    def sibling_cpu(self, cpu_id: int) -> int:
        """The other logical CPU of the same core."""
        return self._contexts[cpu_id].sibling.cpu_id

    def cores(self) -> List[SMTCore]:
        """All physical cores, across chips, in id order."""
        return self._cores

    # ------------------------------------------------------------------
    # Scheduling domains
    # ------------------------------------------------------------------
    def domains(self) -> Dict[str, List[List[int]]]:
        """CPU groups per domain level, ordered context < core < chip.

        Each level maps to a list of *groups*; balancing a level means
        equalizing runnable-task counts across the groups of that level
        (paper §IV-A: "our workload balancer tries to balance the number
        of tasks at each domain level").  Memoized: the topology is
        frozen at construction.
        """
        if self._domains is not None:
            return self._domains
        context_level = [
            [ctx.cpu_id for ctx in core.contexts] for core in self.cores()
        ]
        core_level = [
            [ctx.cpu_id for core in chip.cores for ctx in core.contexts]
            for chip in self.chips
        ]
        chip_level = [list(self._cpu_ids)]
        self._domains = {
            "context": context_level,
            "core": core_level,
            "chip": chip_level,
        }
        return self._domains

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        t = self.topology
        return (
            f"<Machine {t.chips} chip(s) x {t.cores_per_chip} core(s) x "
            f"{t.threads_per_core} thread(s) = {t.n_cpus} CPUs>"
        )
