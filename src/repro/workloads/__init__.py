"""The paper's evaluation workloads, rebuilt as simulated MPI programs.

* :mod:`repro.workloads.metbench` — BSC's MetBench microbenchmark suite
  (master + workers, strict barrier, intrinsic load imbalance),
* :mod:`repro.workloads.metbenchvar` — MetBenchVar: the imbalance is
  reversed every ``k`` iterations (dynamic behaviour),
* :mod:`repro.workloads.btmz` — a NAS BT-MZ-like multi-zone solver:
  uneven per-rank zones, asynchronous neighbor exchange + waitall,
* :mod:`repro.workloads.siesta` — a SIESTA-like irregular
  self-consistency loop: short variable compute chunks, frequent global
  reductions, extreme sensitivity to scheduler latency,
* :mod:`repro.workloads.synth` — parameterized imbalance generators
  (exact target imbalance factor, step-change convergence probe,
  offload-latency and bad-placement stressors),
* :mod:`repro.workloads.noise` — OS noise daemons (the extrinsic
  imbalance source).

Each workload is described by :class:`repro.workloads.base.RankSpec`
entries and launched with :func:`repro.workloads.base.launch_workload`.
"""

from repro.workloads.base import (
    RankSpec,
    Workload,
    LaunchedWorkload,
    launch_workload,
)
from repro.workloads.metbench import MetBench
from repro.workloads.metbenchvar import MetBenchVar
from repro.workloads.btmz import BTMZ
from repro.workloads.siesta import Siesta
from repro.workloads.amr import AMRDrift
from repro.workloads.noise import NoiseDaemons, spawn_noise
from repro.workloads.synth import (
    LocalBad,
    OffloadLatency,
    SyntheticConvergence,
    SyntheticScatter,
    calculate_work,
    unbalanced_sweep,
)

__all__ = [
    "RankSpec",
    "Workload",
    "LaunchedWorkload",
    "launch_workload",
    "MetBench",
    "MetBenchVar",
    "BTMZ",
    "Siesta",
    "AMRDrift",
    "NoiseDaemons",
    "spawn_noise",
    "SyntheticScatter",
    "SyntheticConvergence",
    "LocalBad",
    "OffloadLatency",
    "calculate_work",
    "unbalanced_sweep",
]
