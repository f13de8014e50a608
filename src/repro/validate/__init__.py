"""Differential-oracle validation of the fluid-rate simulator.

Every paper claim this repository reproduces rests on one assumption:
that the event-driven **fluid-rate** execution engine in
:mod:`repro.kernel.core_sched` computes the same schedule a brute-force
simulator would.  This package proves that assumption three ways:

* :mod:`repro.validate.reference` — a deliberately slow, obviously
  correct small-step **time-quantum** simulator (fixed ``dt``, no
  banked-progress shortcuts) consuming the same machine/workload
  configuration.
* :mod:`repro.validate.differential` — runs a scenario through both
  engines and asserts their event logs agree within the quantization
  tolerance, with a minimizing shrinker that reduces any divergence to
  the smallest scenario and the first divergent event.
* :mod:`repro.validate.invariants` — runtime oracles installed into the
  live kernel stack (CPU-time conservation, decode-share arithmetic,
  vruntime monotonicity, detector state-machine legality), toggled by
  the ``REPRO_VALIDATE=1`` environment flag.

:mod:`repro.validate.fuzz` feeds randomized scenarios (topologies, rank
counts, compute/comm mixes, priority ranges, load noise) into the
differential harness; the ``repro-hpcsched validate`` CLI subcommand and
the CI full job run it continuously.
"""

from repro.validate.differential import (
    Divergence,
    DifferentialResult,
    run_differential,
    shrink,
)
from repro.validate.fuzz import (
    FuzzReport,
    SCENARIO_POOLS,
    generate_scenario,
    generate_synth_scenario,
    run_fuzz,
)
from repro.validate.invariants import (
    InvariantViolation,
    validation_enabled,
)
from repro.validate.reference import ReferenceSimulator
from repro.validate.scenario import (
    BarrierOp,
    ComputeOp,
    Scenario,
    SetPrioOp,
    SleepOp,
    TaskSpec,
)

__all__ = [
    "BarrierOp",
    "ComputeOp",
    "DifferentialResult",
    "Divergence",
    "FuzzReport",
    "InvariantViolation",
    "ReferenceSimulator",
    "SCENARIO_POOLS",
    "Scenario",
    "SetPrioOp",
    "SleepOp",
    "TaskSpec",
    "generate_scenario",
    "generate_synth_scenario",
    "run_differential",
    "run_fuzz",
    "shrink",
    "validation_enabled",
]
