"""Measurement harness behind ``repro bench``.

A bench run executes a fixed suite of workloads — the synthetic event
storms from :mod:`repro.bench.scenarios` plus the paper's MetBench
experiment under several schedulers — and records, per benchmark, the
best wall time over ``rounds`` repetitions, the number of simulation
events processed, and the derived events/sec throughput.  The whole
report (plus the process peak RSS) is written to a schema-versioned
``BENCH_<label>.json`` so successive runs can be diffed.

Methodology notes:

* **Best-of-N wall time, median-diffed.**  Shared machines are noisy;
  the minimum over N rounds is the least-contended observation, but a
  single lucky round can flatter it, so each record also carries the
  *median* wall time and the coefficient of variation across rounds,
  and :func:`compare_reports` prefers the median ruler whenever both
  reports provide it (falling back to best-of-N against pre-schema-2
  baselines).  ``gc.collect()`` runs between rounds so collector debt
  from one round is not billed to the next.
* **Identical storm sizes in quick and full mode.**  ``--quick`` only
  trims the experiment suite and the round count, never the storm event
  counts, so throughput numbers stay comparable across modes.
* **Parameter-checked comparisons.**  Every benchmark records its
  parameters; :func:`compare_reports` only diffs entries whose name
  *and* parameters match, so a quick report diffed against a full
  baseline silently skips the non-comparable experiment entries instead
  of producing nonsense ratios.
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.scenarios import (
    DEFAULT_SERVE_JOBS,
    DEFAULT_STORM_CHAINS,
    DEFAULT_STORM_EVENTS,
    DEFAULT_TIMER_ITERATIONS,
    DEFAULT_WIDE_CHAINS,
    DEFAULT_WIDE_NODES,
    DEFAULT_SYNTH_RANKS,
    cluster_metbench,
    cluster_metbench_sharded,
    consume_sharded_stats,
    event_storm_chain,
    event_storm_deep,
    event_storm_timers,
    event_storm_wide,
    event_storm_wide_sharded,
    serve_throughput,
    serve_throughput_warm,
    synth_convergence,
    synth_scatter,
)

#: Bump on any incompatible change to the report layout.  (Additive
#: fields — ``jobs``, ``host_cpus``, the sharded scenarios — do not
#: bump it: old reports stay loadable and diffable.)  Schema 2 added
#: the round statistics (``wall_median_s``, ``wall_cv``,
#: ``events_per_sec_median``); v1 reports remain loadable (see
#: :data:`SUPPORTED_SCHEMAS`) and diffs against them fall back to the
#: best-of-N ruler.
SCHEMA_VERSION = 2

#: Schemas :func:`load_report` accepts.
SUPPORTED_SCHEMAS = frozenset({1, 2})

#: Default regression threshold: fail when a benchmark's events/sec
#: drops more than this fraction below the baseline.
DEFAULT_THRESHOLD = 0.20

#: Shard/worker configuration of the sharded cluster scenarios.
DEFAULT_SHARDS = 8
DEFAULT_SHARD_WORKERS = "inline"

#: Every benchmark name the suite can produce, for --scenario filter
#: validation.  Experiment entries are per-scheduler.
SCENARIO_NAMES = (
    "event_storm_chain",
    "event_storm_deep",
    "event_storm_timers",
    "event_storm_timers_stock",
    "event_storm_wide",
    "event_storm_wide_sharded",
    "event_storm_wide_sharded_proc",
    "metbench_cfs",
    "metbench_uniform",
    "metbench_adaptive",
    "cluster_metbench_16",
    "cluster_metbench_64",
    "cluster_metbench_64_sharded",
    "cluster_metbench_64_sharded_proc",
    "synth_scatter_64",
    "synth_convergence_64",
    "serve_throughput_1w",
    "serve_throughput_4w",
    "serve_throughput_warm",
)

#: Sharded scenarios that accept an explicit shard count — the targets
#: of ``repro bench --shards-sweep``.  ``*_proc`` twins force the
#: process (wire-protocol) transport regardless of host CPU count.
SWEEPABLE_SCENARIOS = (
    "event_storm_wide_sharded",
    "event_storm_wide_sharded_proc",
    "cluster_metbench_64_sharded",
    "cluster_metbench_64_sharded_proc",
)


@dataclass
class BenchRecord:
    """One benchmark's measurement."""

    name: str
    wall_s: float  # best wall time over all rounds
    events: int  # simulation events processed in one round
    events_per_sec: float
    rounds: int
    params: Dict[str, object] = field(default_factory=dict)
    #: Median wall time over the rounds (the diff ruler since schema 2).
    wall_median_s: float = 0.0
    #: Coefficient of variation (stdev/mean) of the round wall times —
    #: a noise gauge for the host; 0.0 for single-round entries.
    wall_cv: float = 0.0
    events_per_sec_median: float = 0.0
    #: Attribution metadata that is *not* part of the comparable surface
    #: (``compare_reports`` keys on name+params only): the sharded
    #: scenarios record ``sync_rounds``/``wire_bytes``/``workers`` here.
    meta: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of this record."""
        out: Dict[str, object] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "rounds": self.rounds,
            "params": self.params,
            "wall_median_s": self.wall_median_s,
            "wall_cv": self.wall_cv,
            "events_per_sec_median": self.events_per_sec_median,
        }
        if self.meta is not None:
            out["meta"] = self.meta
        return out


def host_cpu_count() -> int:
    """Logical CPUs available to this process (affinity-aware)."""
    try:
        import os

        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        import os

        return os.cpu_count() or 1


def host_fingerprint() -> Dict[str, object]:
    """Identity of the measuring host: cpu count, kernel release, python.

    Wall times only mean something against a baseline from the *same*
    fingerprint — PR 6's report showed uniform 0.80–0.95× "regressions"
    on untouched pure-engine scenarios that were really a host/kernel
    change.  :func:`compare_reports` downgrades cross-fingerprint
    regressions to warnings.
    """
    return {
        "cpus": host_cpu_count(),
        "kernel": platform.release(),
        "python": sys.version.split()[0],
    }


def _kernel_from_platform(text: str) -> str:
    """Extract the kernel release from a ``platform.platform()`` string
    (legacy reports recorded only that).  ``Linux-6.18.5-fc-v20-x86_64-
    with-glibc2.36`` → ``6.18.5-fc-v20``; unparseable strings are
    returned whole (they still compare stably against themselves)."""
    if "-" not in text:
        return text
    body = text.split("-", 1)[1]
    for marker in ("-x86_64", "-aarch64", "-arm64", "-i686", "-with"):
        idx = body.find(marker)
        if idx != -1:
            return body[:idx]
    return body


def fingerprint_of(report: Dict[str, object]) -> Dict[str, object]:
    """The host fingerprint of a loaded report dict.  Reports written
    before the explicit ``fingerprint`` field existed derive one from
    the legacy ``host_cpus``/``platform``/``python`` metadata, so a new
    report still matches an old baseline measured on the same host."""
    fp = report.get("fingerprint")
    if isinstance(fp, dict):
        return fp
    return {
        "cpus": report.get("host_cpus"),
        "kernel": _kernel_from_platform(str(report.get("platform", ""))),
        "python": report.get("python"),
    }


def fingerprints_match(
    current: Dict[str, object], baseline: Dict[str, object]
) -> bool:
    """Whether two reports were measured on the same host fingerprint.

    A report with no host metadata at all (neither the explicit
    ``fingerprint`` nor the legacy fields) gets the benefit of the
    doubt: it is assumed same-host so the regression gate stays strict
    rather than silently downgrading every diff against it."""
    cur_fp, base_fp = fingerprint_of(current), fingerprint_of(baseline)

    def blank(fp: Dict[str, object]) -> bool:
        return fp.get("cpus") is None and fp.get("python") is None and not fp.get("kernel")

    if blank(cur_fp) or blank(base_fp):
        return True
    return cur_fp == base_fp


@dataclass
class BenchReport:
    """A full bench run: metadata plus one record per benchmark."""

    label: str
    quick: bool
    records: Dict[str, BenchRecord] = field(default_factory=dict)
    peak_rss_kb: Optional[int] = None
    created: Optional[str] = None
    vs_baseline: Dict[str, object] = field(default_factory=dict)
    #: Benchmark processes run concurrently (``repro bench --jobs``).
    #: Recorded because parallel rounds contend for CPU: wall times from
    #: a jobs>1 report are not comparable to a serial one.
    jobs: int = 1
    #: Logical CPUs the measuring host exposed; same caveat.
    host_cpus: int = field(default_factory=host_cpu_count)
    #: Per-shard-count scaling rows from ``--shards-sweep``:
    #: scenario → [{shards, wall_s, events_per_sec, sync_rounds,
    #: wire_bytes, workers}, ...] so future PRs can track parallel
    #: efficiency, not just single-point wall time.
    scaling: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: schema header, metadata, benchmark table."""
        out: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "label": self.label,
            "quick": self.quick,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "peak_rss_kb": self.peak_rss_kb,
            "jobs": self.jobs,
            "host_cpus": self.host_cpus,
            "fingerprint": {**host_fingerprint(), "cpus": self.host_cpus},
            "benchmarks": {n: r.to_dict() for n, r in self.records.items()},
        }
        if self.created:
            out["created"] = self.created
        if self.vs_baseline:
            out["vs_baseline"] = self.vs_baseline
        if self.scaling:
            out["scaling"] = self.scaling
        return out


def _measure(
    fn: Callable[[], int], rounds: int
) -> Tuple[float, float, float, int]:
    """(best, median, cv, events) of the wall times over ``rounds``."""
    times: List[float] = []
    events = 0
    for _ in range(max(1, rounds)):
        gc.collect()
        t0 = time.perf_counter()
        events = fn()
        times.append(time.perf_counter() - t0)
    best = min(times)
    median = statistics.median(times)
    if len(times) > 1:
        mean = sum(times) / len(times)
        cv = statistics.stdev(times) / mean if mean > 0 else 0.0
    else:
        cv = 0.0
    return best, median, cv, events


def _record(
    name: str,
    fn: Callable[[], int],
    rounds: int,
    params: Dict[str, object],
) -> BenchRecord:
    wall, median, cv, events = _measure(fn, rounds)
    eps = events / wall if wall > 0 else 0.0
    eps_median = events / median if median > 0 else 0.0
    return BenchRecord(
        name=name,
        wall_s=round(wall, 6),
        events=events,
        events_per_sec=round(eps, 1),
        rounds=rounds,
        params=params,
        wall_median_s=round(median, 6),
        wall_cv=round(cv, 4),
        events_per_sec_median=round(eps_median, 1),
    )


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":
        rss //= 1024
    return int(rss)


def _entry_spec(
    name: str, quick: bool, storm_events: int
) -> Tuple[Callable[[], int], Dict[str, object]]:
    """The workload callable and parameter dict of one benchmark.

    Module-level (rather than closures inside :func:`run_suite`) so a
    ``--jobs`` worker process can rebuild the callable from the picklable
    ``(name, quick, storm_events)`` triple.
    """
    if name == "event_storm_chain":
        return lambda: event_storm_chain(storm_events), {"events": storm_events}
    if name == "event_storm_deep":
        return (
            lambda: event_storm_deep(storm_events, DEFAULT_STORM_CHAINS),
            {"events": storm_events, "chains": DEFAULT_STORM_CHAINS},
        )
    if name.startswith("event_storm_timers"):
        # Twin entries: same workload with the fast-forward engine on
        # (default) and off, so one report carries the elision speedup
        # as a same-host wall-time pair.
        ff = not name.endswith("_stock")
        return (
            lambda: event_storm_timers(
                DEFAULT_TIMER_ITERATIONS, fastforward=ff
            ),
            {"iterations": DEFAULT_TIMER_ITERATIONS, "fastforward": ff},
        )
    if name.startswith("metbench_"):
        sched = name[len("metbench_"):]
        iters: Optional[int] = 8 if quick else None

        def run_exp() -> int:
            from repro.experiments import metbench

            result = metbench.run_one(sched, iterations=iters, keep_trace=True)
            assert result.kernel is not None
            return result.kernel.sim.events_processed

        return run_exp, {"scheduler": sched, "iterations": iters}
    if name == "event_storm_wide":
        return (
            lambda: event_storm_wide(DEFAULT_WIDE_CHAINS, DEFAULT_WIDE_NODES),
            {"chains": DEFAULT_WIDE_CHAINS, "nodes": DEFAULT_WIDE_NODES},
        )
    if "_sharded" in name:
        return _sharded_spec(name, DEFAULT_SHARDS)
    if name.startswith("cluster_metbench_"):
        nodes = int(name[len("cluster_metbench_"):])
        return (
            lambda: cluster_metbench(n_nodes=nodes, iterations=2),
            {"nodes": nodes, "iterations": 2, "placements": "block+gang"},
        )
    if name == "synth_scatter_64":
        return (
            lambda: synth_scatter(DEFAULT_SYNTH_RANKS, 2.0, 5),
            {
                "ranks": DEFAULT_SYNTH_RANKS,
                "imbalance": 2.0,
                "iterations": 5,
                "scheduler": "adaptive",
            },
        )
    if name == "synth_convergence_64":
        return (
            lambda: synth_convergence(DEFAULT_SYNTH_RANKS, 12),
            {
                "ranks": DEFAULT_SYNTH_RANKS,
                "iterations": 12,
                "scheduler": "adaptive",
            },
        )
    if name.startswith("serve_throughput"):
        if name == "serve_throughput_warm":
            # The factory does the cold cache fill here, outside the
            # measured rounds; the returned callable is all-cache-hit.
            return (
                serve_throughput_warm(DEFAULT_SERVE_JOBS, workers=1),
                {"jobs": DEFAULT_SERVE_JOBS, "workers": 1, "cache": "warm"},
            )
        workers = int(name[len("serve_throughput_"):-1])
        return (
            lambda: serve_throughput(DEFAULT_SERVE_JOBS, workers=workers),
            {"jobs": DEFAULT_SERVE_JOBS, "workers": workers, "cache": "cold"},
        )
    raise ValueError(f"unknown benchmark {name!r}")


def _sharded_spec(
    name: str, shards: int
) -> Tuple[Callable[[], int], Dict[str, object]]:
    """Callable + params of a sharded scenario at an explicit shard
    count.  The ``_proc`` suffix forces ``workers="process"`` (the
    wire-protocol transport) even on 1-CPU hosts; the base names use
    :data:`DEFAULT_SHARD_WORKERS`."""
    workers = DEFAULT_SHARD_WORKERS
    base = name
    if name.endswith("_proc"):
        workers = "process"
        base = name[: -len("_proc")]
    if base == "event_storm_wide_sharded":
        return (
            lambda: event_storm_wide_sharded(
                DEFAULT_WIDE_CHAINS,
                DEFAULT_WIDE_NODES,
                shards=shards,
                workers=workers,
            ),
            {
                "chains": DEFAULT_WIDE_CHAINS,
                "nodes": DEFAULT_WIDE_NODES,
                "shards": shards,
                "workers": workers,
            },
        )
    if base.startswith("cluster_metbench_") and base.endswith("_sharded"):
        nodes = int(base[len("cluster_metbench_"): -len("_sharded")])
        return (
            lambda: cluster_metbench_sharded(
                n_nodes=nodes,
                iterations=2,
                shards=shards,
                workers=workers,
            ),
            {
                "nodes": nodes,
                "iterations": 2,
                "placements": "block+gang",
                "shards": shards,
                "workers": workers,
            },
        )
    raise ValueError(f"unknown sharded benchmark {name!r}")


def _exec_entry(
    name: str,
    rounds: int,
    quick: bool,
    storm_events: int,
) -> Dict[str, object]:
    """Measure one named benchmark; returns the record as a plain dict
    (this runs inside a worker process under ``--jobs``)."""
    fn, params = _entry_spec(name, quick, storm_events)
    consume_sharded_stats()  # clear any stale stats before measuring
    rec = _record(name, fn, rounds, params)
    rec.meta = consume_sharded_stats()
    return rec.to_dict()


def _plan(
    quick: bool, rounds: int, scenarios: Optional[Sequence[str]]
) -> List[Tuple[str, int]]:
    """The ordered ``(name, rounds)`` schedule of one suite run.

    Storms use the full round count; experiment entries use 1 (quick) or
    2 rounds; cluster and service scenarios cap at 2 rounds.  Quick mode trims the
    experiment suite to ``metbench_uniform`` exactly as before.  Cluster
    scenario parameters are identical in quick and full mode, so their
    numbers stay comparable across modes.
    """

    def wanted(name: str) -> bool:
        return scenarios is None or name in scenarios

    exp_names = ["metbench_uniform"] if quick else [
        "metbench_cfs", "metbench_uniform", "metbench_adaptive"
    ]
    exp_rounds = 1 if quick else 2
    cluster_rounds = min(rounds, 2)
    plan: List[Tuple[str, int]] = []
    for name in (
        "event_storm_chain",
        "event_storm_deep",
        "event_storm_timers",
        "event_storm_timers_stock",
    ):
        if wanted(name):
            plan.append((name, rounds))
    for name in exp_names:
        if wanted(name):
            plan.append((name, exp_rounds))
    for name in (
        "event_storm_wide",
        "event_storm_wide_sharded",
        "event_storm_wide_sharded_proc",
        "cluster_metbench_16",
        "cluster_metbench_64",
        "cluster_metbench_64_sharded",
        "cluster_metbench_64_sharded_proc",
        "synth_scatter_64",
        "synth_convergence_64",
    ):
        if wanted(name):
            plan.append((name, cluster_rounds))
    for name in (
        "serve_throughput_1w",
        "serve_throughput_4w",
        "serve_throughput_warm",
    ):
        if wanted(name):
            plan.append((name, cluster_rounds))
    return plan


def _progress_line(rec: BenchRecord) -> str:
    if rec.name.startswith("event_storm_") and "wide" not in rec.name:
        return (
            f"{rec.name}: {rec.events_per_sec:,.0f} events/s "
            f"({rec.wall_s * 1e3:.1f} ms best of {rec.rounds})"
        )
    return (
        f"{rec.name}: {rec.wall_s * 1e3:.1f} ms, "
        f"{rec.events} events ({rec.events_per_sec:,.0f} events/s)"
    )


def run_shards_sweep(
    shard_counts: Sequence[int],
    scenarios: Optional[Sequence[str]] = None,
    quick: bool = False,
    label: str = "local",
    rounds: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """``repro bench --shards-sweep``: run each selected sharded scenario
    at every shard count in ``shard_counts`` and emit a per-shard-count
    scaling table.

    Records are named ``<scenario>@s<k>`` (with ``shards`` in params, so
    sweeps with different counts never get cross-compared) and the
    report's ``scaling`` section aggregates ``(shards, wall_s,
    events_per_sec, sync_rounds, wire_bytes)`` rows per scenario — the
    parallel-efficiency curve future PRs diff, not just a single wall
    time.  ``scenarios`` defaults to every sweepable scenario; non-sweep
    scenarios in the filter are rejected.
    """
    if not shard_counts:
        raise ValueError("--shards-sweep needs at least one shard count")
    if any(k < 1 for k in shard_counts):
        raise ValueError(f"shard counts must be >= 1, got {list(shard_counts)}")
    if scenarios is None:
        targets = list(SWEEPABLE_SCENARIOS)
    else:
        bad = sorted(set(scenarios) - set(SWEEPABLE_SCENARIOS))
        if bad:
            raise ValueError(
                f"--shards-sweep only applies to sharded scenarios "
                f"({', '.join(SWEEPABLE_SCENARIOS)}); got {', '.join(bad)}"
            )
        targets = list(scenarios)
    n_rounds = min(rounds if rounds is not None else (3 if quick else 5), 2)
    say = progress or (lambda _msg: None)
    report = BenchReport(label=label, quick=quick)
    for name in targets:
        rows: List[Dict[str, object]] = []
        for k in shard_counts:
            fn, params = _sharded_spec(name, k)
            consume_sharded_stats()
            rec = _record(f"{name}@s{k}", fn, n_rounds, params)
            rec.meta = consume_sharded_stats()
            report.records[rec.name] = rec
            say(_progress_line(rec))
            stats = rec.meta or {}
            rows.append(
                {
                    "shards": k,
                    "wall_s": rec.wall_s,
                    "wall_median_s": rec.wall_median_s,
                    "events_per_sec": rec.events_per_sec,
                    "sync_rounds": stats.get("sync_rounds", 0),
                    "wire_bytes": stats.get("wire_bytes", 0),
                    "workers": stats.get("workers", "inline"),
                }
            )
        report.scaling[name] = rows
    report.peak_rss_kb = _peak_rss_kb()
    return report


def run_suite(
    quick: bool = False,
    label: str = "local",
    rounds: Optional[int] = None,
    storm_events: int = DEFAULT_STORM_EVENTS,
    progress: Optional[Callable[[str], None]] = None,
    scenarios: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> BenchReport:
    """Run the bench suite (or a subset) and return the report.

    ``rounds`` defaults to 3 in quick mode and 5 otherwise;
    ``storm_events`` is exposed for the unit tests (tiny storms) and is
    recorded in each storm's ``params`` so mismatched-size reports never
    get compared.  ``scenarios`` restricts the run to the named
    benchmarks (see :data:`SCENARIO_NAMES`).  ``progress`` receives one
    line per benchmark.

    ``jobs`` > 1 farms *distinct* benchmarks out to that many worker
    processes.  Each benchmark still runs its rounds sequentially inside
    one worker (a benchmark is never split), but concurrent benchmarks
    contend for CPU, so the resulting wall times are only comparable to
    other reports measured with the same ``jobs`` on the same host —
    both are recorded in the report and :func:`context_warnings` flags
    diffs across mismatched configurations.
    """
    if rounds is None:
        rounds = 3 if quick else 5
    if scenarios is not None:
        unknown = sorted(set(scenarios) - set(SCENARIO_NAMES))
        if unknown:
            raise ValueError(
                f"unknown scenario(s) {', '.join(unknown)}; "
                f"choose from {', '.join(SCENARIO_NAMES)}"
            )
    say = progress or (lambda _msg: None)
    jobs = max(1, jobs)
    report = BenchReport(label=label, quick=quick, jobs=jobs)
    plan = _plan(quick, rounds, scenarios)

    if jobs > 1 and len(plan) > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        done: Dict[str, BenchRecord] = {}
        with ProcessPoolExecutor(max_workers=min(jobs, len(plan))) as pool:
            futures = {
                pool.submit(
                    _exec_entry, name, n_rounds, quick, storm_events
                ): name
                for name, n_rounds in plan
            }
            for fut in as_completed(futures):
                rec = BenchRecord(**fut.result())  # type: ignore[arg-type]
                done[rec.name] = rec
                say(_progress_line(rec))
        for name, _ in plan:  # report order follows the plan, not finish
            report.records[name] = done[name]
    else:
        for name, n_rounds in plan:
            rec = BenchRecord(**_exec_entry(name, n_rounds, quick, storm_events))  # type: ignore[arg-type]
            report.records[name] = rec
            say(_progress_line(rec))

    report.peak_rss_kb = _peak_rss_kb()
    return report


# ----------------------------------------------------------------------
# Report I/O and comparison
# ----------------------------------------------------------------------
class BenchFormatError(ValueError):
    """A BENCH_*.json file does not match the expected schema."""


def write_report(report: BenchReport, path: Path) -> None:
    """Serialize ``report`` to ``path`` (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


def load_report(path: Path) -> Dict[str, object]:
    """Load and validate a report dict (raw JSON form)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "schema" not in data:
        raise BenchFormatError(f"{path}: not a bench report")
    if data["schema"] not in SUPPORTED_SCHEMAS:
        raise BenchFormatError(
            f"{path}: schema {data['schema']} not in supported "
            f"{sorted(SUPPORTED_SCHEMAS)}"
        )
    if not isinstance(data.get("benchmarks"), dict):
        raise BenchFormatError(f"{path}: missing benchmarks table")
    return data


def find_baseline(directory: Path, exclude: Optional[Path] = None) -> Optional[Path]:
    """The most recently modified ``BENCH_*.json`` in ``directory``,
    skipping ``exclude`` (the file about to be written)."""
    directory = Path(directory)
    candidates = [
        p
        for p in sorted(directory.glob("BENCH_*.json"))
        if exclude is None or p.resolve() != Path(exclude).resolve()
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda p: p.stat().st_mtime)


def context_warnings(
    current: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Human-readable warnings when two reports were measured under
    different conditions (``--jobs`` parallelism or host CPU count):
    their wall times contend differently for CPU, so throughput ratios
    between them are not trustworthy.  Reports written before these
    fields existed default to the serial single-host assumption
    (``jobs=1``), which never warns against an equally-old baseline."""
    warnings: List[str] = []
    cur_jobs = int(current.get("jobs", 1) or 1)
    base_jobs = int(baseline.get("jobs", 1) or 1)
    if cur_jobs != base_jobs:
        warnings.append(
            f"bench --jobs mismatch: current report measured with "
            f"jobs={cur_jobs}, baseline with jobs={base_jobs}; parallel "
            f"benchmarks contend for CPU, so ratios are unreliable"
        )
    cur_cpus = current.get("host_cpus")
    base_cpus = baseline.get("host_cpus")
    if cur_cpus is not None and base_cpus is not None and cur_cpus != base_cpus:
        warnings.append(
            f"host CPU count mismatch: current host has {cur_cpus}, "
            f"baseline had {base_cpus}; wall times are not comparable "
            f"across hosts"
        )
    if not fingerprints_match(current, baseline):
        cur_fp, base_fp = fingerprint_of(current), fingerprint_of(baseline)
        warnings.append(
            f"host fingerprint mismatch: current {cur_fp} vs baseline "
            f"{base_fp}; regressions are downgraded to warnings (wall "
            f"times across hosts/kernels/pythons are not comparable)"
        )
    return warnings


def compare_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    same_host: Optional[bool] = None,
) -> List[Dict[str, object]]:
    """Diff two report dicts.

    Returns one row per benchmark present in both reports *with matching
    parameters*: ``{name, current, baseline, ratio, basis, regressed,
    cross_host}`` where ``ratio`` > 1 means the current report is faster
    and ``regressed`` flags a drop of more than ``threshold``.

    Two rules keep the ratios honest:

    * **Basis.**  Normally the ratio is current/baseline events-per-sec,
      computed from the *median*-round numbers when both reports carry
      them (schema 2) and from the best-of-N numbers otherwise — a
      single lucky round flatters the minimum, so the median is the
      fairer ruler whenever it is available on both sides.  When the
      same workload processed a *different number of events* (the
      fast-forward engine elides inert timers, so event counts
      legitimately change across engine versions), throughput is the
      wrong ruler — eliding 90% of the events "loses" 90% of the
      numerator — and the row falls back to the wall-time ratio
      (baseline/current, same orientation).  ``basis`` records which
      ruler was used (``events_per_sec[_median]`` or
      ``wall_s``/``wall_median_s``).
    * **Cross-host downgrade.**  When the reports' host fingerprints
      differ (``same_host`` defaults to :func:`fingerprints_match`),
      a drop beyond the threshold sets ``cross_host`` instead of
      ``regressed`` — a kernel/python/cpu change moves wall times by
      tens of percent on its own, so the gate must not fail CI on it.
    """
    rows: List[Dict[str, object]] = []
    cur_benches = current["benchmarks"]
    base_benches = baseline["benchmarks"]
    assert isinstance(cur_benches, dict) and isinstance(base_benches, dict)
    if same_host is None:
        same_host = fingerprints_match(current, baseline)
    for name in sorted(cur_benches):
        if name not in base_benches:
            continue
        cur, base = cur_benches[name], base_benches[name]
        if cur.get("params") != base.get("params"):
            continue  # not comparable (different sizes/iterations)
        cur_events, base_events = cur.get("events"), base.get("events")

        def pick(field_median: str, field_best: str) -> Tuple[str, float, float]:
            # Median ruler only when BOTH reports carry it (a v1
            # baseline has no medians; comparing its best against a
            # median would bias the ratio).
            cm = float(cur.get(field_median, 0.0) or 0.0)
            bm = float(base.get(field_median, 0.0) or 0.0)
            if cm > 0 and bm > 0:
                return field_median, cm, bm
            return field_best, float(cur.get(field_best, 0.0) or 0.0), float(
                base.get(field_best, 0.0) or 0.0
            )

        if (
            cur_events is not None
            and base_events is not None
            and cur_events != base_events
        ):
            basis, cur_val, base_val = pick("wall_median_s", "wall_s")
            if cur_val <= 0 or base_val <= 0:
                continue
            ratio = base_val / cur_val
        else:
            basis, cur_val, base_val = pick(
                "events_per_sec_median", "events_per_sec"
            )
            if base_val <= 0:
                continue
            ratio = cur_val / base_val
        slow = ratio < 1.0 - threshold
        rows.append(
            {
                "name": name,
                "current": cur_val,
                "baseline": base_val,
                "ratio": round(ratio, 4),
                "basis": basis,
                "regressed": slow and same_host,
                "cross_host": slow and not same_host,
            }
        )
    return rows
