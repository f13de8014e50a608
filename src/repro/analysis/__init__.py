"""Analysis utilities: table formatting, convergence-time extraction."""

from repro.analysis.tables import format_characterization_table, format_comparison
from repro.analysis.convergence import (
    DEFAULT_EPS,
    ConvergenceMetrics,
    EpochSample,
    auto_eps,
    convergence_metrics,
    epoch_samples,
    spread_floor,
)

__all__ = [
    "format_characterization_table",
    "format_comparison",
    "DEFAULT_EPS",
    "ConvergenceMetrics",
    "EpochSample",
    "auto_eps",
    "convergence_metrics",
    "epoch_samples",
    "spread_floor",
]
