"""Priority characterization — the methodology of reference [4].

The paper's performance model rests on its companion ISCA'08 study,
which co-scheduled microbenchmark pairs on one POWER5 core at every
hardware-priority combination and measured each thread's progress and
resource share with the PMU.  This experiment reruns that methodology
*inside the simulation*: for each priority pair it co-schedules two
identical busy loops, measures their speed relative to the equal-
priority baseline and reads the PMU's average decode shares.

It serves two purposes:

* it regenerates a Table-I-like decode-share matrix *empirically* (the
  PMU integral must match the analytical ``decode_shares``), and
* it round-trips the calibrated performance model: the measured speed
  ratios must equal the ``PerfProfile`` table the experiments use —
  a self-consistency check between the model's two faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.experiments.common import build_kernel
from repro.experiments.registry import register
from repro.kernel.syscalls import Compute
from repro.power5.decode import decode_shares
from repro.power5.perfmodel import CPU_BOUND, PerfProfile
from repro.power5.pmu import MachinePMU


@dataclass(frozen=True)
class PairMeasurement:
    """Result of co-running two tasks at one priority pair."""

    prio_a: int
    prio_b: int
    speed_a: float  # relative to the equal-priority baseline
    speed_b: float
    decode_share_a: float  # PMU-measured average share
    decode_share_b: float


def measure_pair(
    prio_a: int,
    prio_b: int,
    profile: PerfProfile = CPU_BOUND,
    duration: float = 1.0,
) -> PairMeasurement:
    """Co-schedule two busy loops on one core at fixed priorities."""
    kernel = build_kernel()
    pmu = kernel.pmu = MachinePMU(kernel.machine)

    def busy():
        while True:
            yield Compute(10.0)

    a = kernel.spawn("A", busy(), cpu=0, perf_profile=profile)
    b = kernel.spawn("B", busy(), cpu=1, perf_profile=profile)
    kernel.set_hw_priority(a, prio_a)
    kernel.set_hw_priority(b, prio_b)
    end = kernel.run(until=duration)  # finalizes the attached PMU

    ca = pmu.context_counters(0)
    cb = pmu.context_counters(1)
    return PairMeasurement(
        prio_a=prio_a,
        prio_b=prio_b,
        speed_a=ca.work_done / end,
        speed_b=cb.work_done / end,
        decode_share_a=ca.avg_decode_share,
        decode_share_b=cb.avg_decode_share,
    )


def characterize(
    profile: PerfProfile = CPU_BOUND,
    prio_range: Tuple[int, ...] = (2, 3, 4, 5, 6),
) -> Dict[Tuple[int, int], PairMeasurement]:
    """The full priority-pair sweep of [4]."""
    out = {}
    for pa in prio_range:
        for pb in prio_range:
            out[(pa, pb)] = measure_pair(pa, pb, profile)
    return out


def render(measurements: Dict[Tuple[int, int], PairMeasurement]) -> str:
    """ISCA'08-style matrix: speed of task A per (prioA, prioB)."""
    prios = sorted({pa for pa, _ in measurements})
    lines = ["speed of task A (columns: prio B)"]
    header = "A\\B " + "".join(f"{pb:>8}" for pb in prios)
    lines.append(header)
    for pa in prios:
        row = f"{pa:>3} " + "".join(
            f"{measurements[(pa, pb)].speed_a:>8.3f}" for pb in prios
        )
        lines.append(row)
    return "\n".join(lines)


@register("characterization")
def run_characterization(
    profile: Optional[PerfProfile] = None, **_kwargs
) -> Dict[str, object]:
    """Full sweep + the two model-consistency checks (see module doc)."""
    profile = profile or CPU_BOUND
    measurements = characterize(profile)

    # Consistency check 1: PMU decode shares == Table I arithmetic.
    share_errors = []
    for (pa, pb), m in measurements.items():
        expect_a, expect_b = decode_shares(pa, pb)
        share_errors.append(abs(m.decode_share_a - expect_a))
        share_errors.append(abs(m.decode_share_b - expect_b))

    # Consistency check 2: measured speeds == the calibrated table.
    speed_errors = []
    for (pa, pb), m in measurements.items():
        expect = profile.table_speed(pa - pb)
        speed_errors.append(abs(m.speed_a - expect))

    return {
        "measurements": measurements,
        "rendered": render(measurements),
        "max_share_error": max(share_errors),
        "max_speed_error": max(speed_errors),
    }
