"""HPCSched — the paper's dynamic balancing scheduler (paper §IV).

Three mostly-independent components:

* **Scheduling policy** (:mod:`repro.hpcsched.sched_hpc`): a new
  scheduling class inserted between the real-time and the CFS class,
  serving the new ``SCHED_HPC`` policy with round-robin queueing (the
  policy the paper evaluates).  An application opts in with one
  ``sched_setscheduler()`` call — the only source modification
  required.
* **Load Imbalance Detector and heuristics**
  (:mod:`repro.hpcsched.detector`, :mod:`repro.hpcsched.heuristics`):
  per-iteration CPU-utilization tracking (an iteration is a compute
  phase plus the MPI wait that ends it, paper Fig. 2) and the *Uniform*
  (global utilization, LOW_UTIL/HIGH_UTIL bands) and *Adaptive*
  (``U = G*Ug(i-1) + L*Ul(i)``) priority-selection heuristics.
* **Mechanism** (:mod:`repro.hpcsched.mechanism`): the only
  architecture-dependent part — programming the POWER5 hardware thread
  priority (or doing nothing on machines without such support, in which
  case HPCSched still provides its low-latency scheduling benefits,
  paper §IV-C).

Helper :func:`attach_hpcsched` wires everything onto a simulated kernel.
The paper's per-domain HPC task balancing (§IV-A) is not modelled:
every experiment pins its ranks, so an equalization pass could never
move one.
"""

from repro.hpcsched.sched_hpc import HPCSchedClass, attach_hpcsched
from repro.hpcsched.detector import LoadImbalanceDetector, HPCTaskStats
from repro.hpcsched.heuristics import (
    Heuristic,
    UniformHeuristic,
    AdaptiveHeuristic,
    HybridHeuristic,
)
from repro.hpcsched.mechanism import (
    PriorityMechanism,
    POWER5Mechanism,
    NullMechanism,
)

__all__ = [
    "HPCSchedClass",
    "attach_hpcsched",
    "LoadImbalanceDetector",
    "HPCTaskStats",
    "Heuristic",
    "UniformHeuristic",
    "AdaptiveHeuristic",
    "HybridHeuristic",
    "PriorityMechanism",
    "POWER5Mechanism",
    "NullMechanism",
]
