"""Declarative campaign specifications.

A *campaign* is a matrix of experiment runs — (experiment id x
parameter overrides x seed) — expanded from the existing
``experiments.registry``.  Each cell is a :class:`RunSpec`; the whole
matrix is a :class:`CampaignSpec`.  Both are plain data: a spec can be
hashed (for the content-addressed result cache), serialized into the
campaign manifest, and shipped to a worker process.

The module also owns the two pieces of glue that make the campaign
layer and ``repro-hpcsched run`` share one code path:

* :func:`invoke` — resolve a :class:`RunSpec` to its runner (registry
  id or an explicit ``module:function`` dotted path) and call it with
  only the keyword arguments the runner actually accepts;
* :func:`summarize_result` / :func:`result_from_payload` — convert a
  runner's return value to a canonical JSON payload and back (the
  payload is what gets cached, stored, and byte-compared between
  parallel and serial executions).
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.common import ExperimentResult, TaskResult


# ----------------------------------------------------------------------
# Canonical serialization
# ----------------------------------------------------------------------

def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, ``repr`` floats.

    Two equal payloads always serialize to the same bytes, which is
    what makes SHA-256 cache keys and the parallel-equals-serial
    assertion meaningful.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_sha256(obj: Any) -> str:
    """SHA-256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Run / campaign specs
# ----------------------------------------------------------------------

@dataclass
class RunSpec:
    """One cell of a campaign matrix.

    ``experiment`` is a registry id (``table3``, ``fig4``, ...) unless
    ``runner`` gives an explicit ``package.module:function`` dotted
    path (used by tests to inject crashing/hanging stubs).  ``params``
    are keyword overrides forwarded to the runner; ``seed`` (if not
    ``None``) is forwarded as the ``seed`` keyword.
    """

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    runner: Optional[str] = None

    def identity(self) -> Dict[str, Any]:
        """The result-determining fields (what the cache key hashes)."""
        return {
            "experiment": self.experiment,
            "params": self.params,
            "seed": self.seed,
            "runner": self.runner,
        }

    @property
    def digest(self) -> str:
        """SHA-256 of the run's identity."""
        return spec_sha256(self.identity())

    @property
    def run_id(self) -> str:
        """Stable human-readable id: ``<experiment>-<digest prefix>``."""
        return f"{self.experiment}-{self.digest[:10]}"

    def to_payload(self) -> Dict[str, Any]:
        """JSON-able form (manifest / worker transport)."""
        return {
            "experiment": self.experiment,
            "params": self.params,
            "seed": self.seed,
            "runner": self.runner,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_payload`; unknown keys are ignored."""
        return cls(
            experiment=payload["experiment"],
            params=dict(payload.get("params") or {}),
            seed=payload.get("seed"),
            runner=payload.get("runner"),
        )


@dataclass
class CampaignSpec:
    """A named list of :class:`RunSpec` cells."""

    name: str
    runs: List[RunSpec] = field(default_factory=list)
    description: str = ""

    @property
    def digest(self) -> str:
        """SHA-256 over all run identities (order-independent)."""
        return spec_sha256(sorted(r.digest for r in self.runs))

    def to_payload(self) -> Dict[str, Any]:
        """JSON-able form for the campaign manifest."""
        return {
            "name": self.name,
            "description": self.description,
            "digest": self.digest,
            "runs": [r.to_payload() for r in self.runs],
        }


def expand_matrix(
    name: str,
    experiments: Sequence[str],
    seeds: Sequence[Optional[int]] = (None,),
    params: Optional[Mapping[str, Any]] = None,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    per_experiment_params: Optional[Mapping[str, Mapping[str, Any]]] = None,
    description: str = "",
) -> CampaignSpec:
    """Expand (experiment x seed x grid-point) into a campaign.

    ``params`` are overrides common to every run; ``grid`` maps a
    parameter name to a list of values and contributes its cartesian
    product; ``per_experiment_params`` adds overrides keyed by
    experiment id (e.g. quick iteration counts).
    """
    grid = dict(grid or {})
    grid_axes = [[(k, v) for v in values] for k, values in sorted(grid.items())]
    runs: List[RunSpec] = []
    for exp_id in experiments:
        base = dict(params or {})
        base.update((per_experiment_params or {}).get(exp_id, {}))
        for seed in seeds:
            for combo in itertools.product(*grid_axes) if grid_axes else [()]:
                cell = dict(base)
                cell.update(combo)
                runs.append(RunSpec(experiment=exp_id, params=cell, seed=seed))
    return CampaignSpec(name=name, runs=runs, description=description)


# ----------------------------------------------------------------------
# Built-in campaigns
# ----------------------------------------------------------------------

#: Reduced-size parameter overrides per experiment (same shape, much
#: faster) — used by the ``paper-quick`` and ``smoke`` campaigns.
QUICK_PARAMS: Dict[str, Dict[str, Any]] = {
    "table3": {"iterations": 8},
    "table4": {"iterations": 9, "k": 3},
    "table5": {"iterations": 30},
    "table6": {"scf_steps": 4},
    "fig2": {"iterations": 2},
    "fig3": {"iterations": 4},
    "fig4": {"iterations": 9, "k": 3},
    "fig5": {"iterations": 10},
    "fig6": {"scf_steps": 2},
    "ablation_gl": {"iterations": 15, "k": 5},
    "ablation_latency": {"scf_steps": 2},
    "ablation_priority_range": {"iterations": 8},
    "ablation_nice": {"iterations": 8},
    "extrinsic": {"iterations": 8},
    "synth_scatter": {"iterations": 3, "ranks": 4},
    "synth_convergence": {"iterations": 8, "ranks": 8},
    "synth_sweep": {"iterations": 2, "ranks": [4, 16]},
    "synth_offload": {"iterations": 2, "messages": 4},
    "synth_local_bad": {"iterations": 3, "ranks": 4},
}

#: The (imbalance x rank-count) grid of the ``synth-sweep`` preset.
SWEEP_IMBALANCES = (1.0, 1.5, 2.0, 4.0)
SWEEP_RANKS = (4, 16, 64)


def _all_experiment_ids() -> List[str]:
    from repro.experiments.registry import all_ids

    return all_ids()


def builtin_campaign(name: str) -> CampaignSpec:
    """Resolve a built-in campaign by name.

    * ``paper-full`` — every registered experiment at full paper size
      (regenerates tables I-VI, figs 1-6, and all ablations);
    * ``paper-quick`` — the same matrix with reduced iteration counts;
    * ``smoke`` — two fast experiments, used by CI;
    * ``synth-sweep`` — ``synth_scatter`` over the feasible
      (imbalance x rank-count) grid, one cached run per cell;
    * ``synth-convergence`` — step-change reaction time (with
      reversal) at 16 and 64 ranks.
    """
    if name == "paper-full":
        return expand_matrix(
            "paper-full",
            _all_experiment_ids(),
            description="every paper table/figure/ablation, full size",
        )
    if name == "paper-quick":
        return expand_matrix(
            "paper-quick",
            _all_experiment_ids(),
            per_experiment_params=QUICK_PARAMS,
            description="every paper table/figure/ablation, reduced size",
        )
    if name == "smoke":
        return expand_matrix(
            "smoke",
            ["table1", "fig1"],
            description="2-run CI smoke campaign",
        )
    if name == "synth-sweep":
        from repro.workloads.synth import unbalanced_sweep

        return CampaignSpec(
            name="synth-sweep",
            runs=[
                RunSpec(experiment="synth_scatter", params=dict(cell))
                for cell in unbalanced_sweep(SWEEP_IMBALANCES, SWEEP_RANKS)
            ],
            description=(
                "synthetic_scatter over the feasible imbalance x ranks "
                "grid, one cached run per cell"
            ),
        )
    if name == "synth-convergence":
        return expand_matrix(
            "synth-convergence",
            ["synth_convergence"],
            grid={"ranks": [16, 64]},
            params={"revert_at": 9},
            description=(
                "step-change reaction time (uniform vs adaptive, with "
                "reversal) at 16 and 64 ranks"
            ),
        )
    known = ", ".join(sorted(BUILTIN_CAMPAIGNS))
    raise KeyError(f"unknown campaign {name!r}; built-ins: {known}")


#: Names :func:`builtin_campaign` accepts.
BUILTIN_CAMPAIGNS = (
    "paper-full",
    "paper-quick",
    "smoke",
    "synth-sweep",
    "synth-convergence",
)


# ----------------------------------------------------------------------
# Runner resolution / invocation
# ----------------------------------------------------------------------

def resolve_runner(spec: RunSpec) -> Callable:
    """The callable a :class:`RunSpec` describes.

    Either an explicit ``module:function`` dotted path, or the registry
    entry for ``spec.experiment``.
    """
    if spec.runner:
        mod_name, _, attr = spec.runner.partition(":")
        if not attr:
            raise ValueError(
                f"runner {spec.runner!r} must be 'package.module:function'"
            )
        return getattr(importlib.import_module(mod_name), attr)
    from repro.experiments.registry import resolve

    return resolve(spec.experiment)


def filter_kwargs(
    fn: Callable, kwargs: Mapping[str, Any]
) -> Tuple[Dict[str, Any], List[str]]:
    """Split ``kwargs`` into (accepted, dropped-names) for ``fn``.

    A runner with a ``**kwargs`` catch-all accepts everything;
    otherwise only named keyword parameters survive.  Dropping instead
    of raising lets one campaign-wide override (e.g. ``seed``) apply
    to the subset of experiments that understand it.
    """
    sig = inspect.signature(fn)
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in sig.parameters.values()
    ):
        return dict(kwargs), []
    accepted, dropped = {}, []
    for key, value in kwargs.items():
        param = sig.parameters.get(key)
        if param is not None and param.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            accepted[key] = value
        else:
            dropped.append(key)
    return accepted, dropped


def invoke(spec: RunSpec) -> Tuple[Any, List[str]]:
    """Run the spec's experiment; returns (raw result, dropped kwargs).

    This is the single invocation path shared by ``repro-hpcsched
    run``, the campaign worker processes, and the serial verifier.
    """
    fn = resolve_runner(spec)
    kwargs = dict(spec.params)
    if spec.seed is not None:
        kwargs.setdefault("seed", spec.seed)
    accepted, dropped = filter_kwargs(fn, kwargs)
    return fn(**accepted), dropped


# ----------------------------------------------------------------------
# Result payloads
# ----------------------------------------------------------------------

_EXPERIMENT_RESULT_KIND = "experiment_result"


def summarize_result(obj: Any) -> Any:
    """Reduce a runner's return value to a JSON-able payload.

    :class:`ExperimentResult` objects become typed dicts (dropping the
    trace/kernel handles, which exist only for figure rendering);
    containers recurse; anything else non-JSON falls back to ``repr``.
    """
    if isinstance(obj, ExperimentResult):
        return {
            "__kind__": _EXPERIMENT_RESULT_KIND,
            "workload": obj.workload,
            "scheduler": obj.scheduler,
            "exec_time": obj.exec_time,
            "mean_wakeup_latency": obj.mean_wakeup_latency,
            "max_wakeup_latency": obj.max_wakeup_latency,
            "priority_changes": obj.priority_changes,
            "tasks": {
                name: {
                    "name": tr.name,
                    "pct_comp": tr.pct_comp,
                    "pct_running": tr.pct_running,
                    "priority": tr.priority,
                    "running": tr.running,
                    "waiting": tr.waiting,
                    "ready": tr.ready,
                }
                for name, tr in obj.tasks.items()
            },
            "priority_history": {
                name: [list(entry) for entry in hist]
                for name, hist in obj.priority_history.items()
            },
        }
    if isinstance(obj, Mapping):
        return {str(k): summarize_result(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [summarize_result(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def result_from_payload(payload: Any) -> Any:
    """Rebuild :class:`ExperimentResult` trees from a stored payload.

    The inverse of :func:`summarize_result` as far as table rendering
    needs: reconstructed results carry tasks and timings but no trace.
    """
    if isinstance(payload, Mapping):
        if payload.get("__kind__") == _EXPERIMENT_RESULT_KIND:
            res = ExperimentResult(
                workload=payload["workload"],
                scheduler=payload["scheduler"],
                exec_time=payload["exec_time"],
                mean_wakeup_latency=payload.get("mean_wakeup_latency", 0.0),
                max_wakeup_latency=payload.get("max_wakeup_latency", 0.0),
                priority_changes=payload.get("priority_changes", 0),
            )
            for name, tr in payload.get("tasks", {}).items():
                res.tasks[name] = TaskResult(**tr)
            res.priority_history = {
                name: [tuple(entry) for entry in hist]
                for name, hist in payload.get("priority_history", {}).items()
            }
            return res
        return {k: result_from_payload(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [result_from_payload(v) for v in payload]
    return payload


def iter_experiment_results(payload: Any) -> Iterable[ExperimentResult]:
    """Yield every reconstructed :class:`ExperimentResult` in a payload."""
    restored = result_from_payload(payload)

    def walk(node):
        if isinstance(node, ExperimentResult):
            yield node
        elif isinstance(node, Mapping):
            for v in node.values():
                yield from walk(v)
        elif isinstance(node, list):
            for v in node:
                yield from walk(v)

    yield from walk(restored)
