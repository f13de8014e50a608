"""Analysis utilities: metrics, table formatting, convergence-time
extraction."""

from repro.analysis.metrics import (
    speedup,
    percent_improvement,
    imbalance_percent,
    critical_path_bound,
)
from repro.analysis.tables import format_characterization_table, format_comparison
from repro.analysis.convergence import (
    DEFAULT_EPS,
    ConvergenceMetrics,
    EpochSample,
    auto_eps,
    convergence_from_result,
    convergence_metrics,
    epoch_samples,
    spread_floor,
)

__all__ = [
    "speedup",
    "percent_improvement",
    "imbalance_percent",
    "critical_path_bound",
    "format_characterization_table",
    "format_comparison",
    "DEFAULT_EPS",
    "ConvergenceMetrics",
    "EpochSample",
    "auto_eps",
    "convergence_from_result",
    "convergence_metrics",
    "epoch_samples",
    "spread_floor",
]
