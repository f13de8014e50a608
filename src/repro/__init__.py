"""repro — HPCSched: a full reproduction of
*"A Dynamic Scheduler for Balancing HPC Applications"*
(Boneti, Gioiosa, Cazorla, Valero — SC 2008) as a discrete-event
simulation stack.

The paper's contribution (a Linux scheduling class that balances MPI
applications by driving the IBM POWER5's hardware thread priorities)
and everything it stands on are rebuilt in pure Python:

* :mod:`repro.simcore`   — discrete-event engine,
* :mod:`repro.power5`    — POWER5 chip model: priorities, decode
  arbitration, performance models, topology,
* :mod:`repro.kernel`    — Linux 2.6.24-style scheduler framework
  (scheduler core, RT class, CFS with a vruntime-ordered timeline,
  idle class, tunables; each task runs on the CPU it was started on),
* :mod:`repro.hpcsched`  — the paper's HPCSched: SCHED_HPC class, Load
  Imbalance Detector, Uniform/Adaptive heuristics, POWER5 mechanism,
* :mod:`repro.mpi`       — simulated MPI runtime (p2p, waitall,
  collectives),
* :mod:`repro.workloads` — MetBench, MetBenchVar, BT-MZ, SIESTA, OS
  noise,
* :mod:`repro.trace`     — PARAVER-like tracing, %Comp stats, ASCII
  Gantt rendering,
* :mod:`repro.experiments` — the paper's full evaluation (Tables I-VI,
  Figures 1-6, ablations).

Quickstart::

    from repro import MetBench, run_experiment

    baseline = run_experiment(MetBench(), "cfs")
    dynamic = run_experiment(MetBench(), "uniform")
    print(dynamic.improvement_over(baseline), "% faster")
"""

from repro.experiments.common import (
    ExperimentResult,
    TaskResult,
    build_kernel,
    run_experiment,
)
from repro.hpcsched import (
    AdaptiveHeuristic,
    HPCSchedClass,
    LoadImbalanceDetector,
    UniformHeuristic,
    attach_hpcsched,
)
from repro.kernel import Kernel, SchedPolicy, Task
from repro.mpi import MPIRank, MPIRuntime
from repro.power5 import (
    CPU_BOUND,
    MEM_BOUND,
    MIXED,
    HWPriority,
    Machine,
    MachineTopology,
    decode_shares,
)
from repro.trace import TraceCollector, compute_stats, render_gantt
from repro.workloads import (
    BTMZ,
    MetBench,
    MetBenchVar,
    NoiseDaemons,
    Siesta,
    launch_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # experiments
    "ExperimentResult",
    "TaskResult",
    "build_kernel",
    "run_experiment",
    # hpcsched
    "AdaptiveHeuristic",
    "HPCSchedClass",
    "LoadImbalanceDetector",
    "UniformHeuristic",
    "attach_hpcsched",
    # kernel
    "Kernel",
    "SchedPolicy",
    "Task",
    # mpi
    "MPIRank",
    "MPIRuntime",
    # power5
    "CPU_BOUND",
    "MEM_BOUND",
    "MIXED",
    "HWPriority",
    "Machine",
    "MachineTopology",
    "decode_shares",
    # trace
    "TraceCollector",
    "compute_stats",
    "render_gantt",
    # workloads
    "BTMZ",
    "MetBench",
    "MetBenchVar",
    "NoiseDaemons",
    "Siesta",
    "launch_workload",
]
