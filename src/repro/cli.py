"""Command-line interface: ``repro-hpcsched`` / ``python -m repro``.

Subcommands:

* ``list``                      — show the experiment ids,
* ``run <experiment-id>``       — run one experiment and print the
  paper-style table / figure output (``--param KEY=VALUE`` and
  ``--seed N`` forward overrides to the runner),
* ``export``                    — write trace artifacts for one run,
* ``report``                    — regenerate the full evaluation,
* ``campaign run|status|report`` — parallel, cached campaigns over
  the whole experiment matrix (see :mod:`repro.campaign`),
* ``validate``                  — differential-oracle fuzzing of the
  fluid-rate engine against the brute-force reference simulator
  (see :mod:`repro.validate`),
* ``cluster``                   — block vs gang placement on an
  N-node cluster, one HPCSched per node (paper §VI; see
  :mod:`repro.cluster`),
* ``synth scatter|sweep|convergence`` — parameterized imbalance
  generators: exact-imbalance scatter points, imbalance x ranks
  sweeps, and step-change convergence timing (see
  :mod:`repro.workloads.synth` / :mod:`repro.analysis.convergence`).

Examples::

    repro-hpcsched list
    repro-hpcsched run table3
    repro-hpcsched run fig4 --param iterations=9 --param k=3
    repro-hpcsched campaign run paper-full --jobs 4
    repro-hpcsched campaign status campaigns/paper-full
    repro-hpcsched validate --fuzz 50 --seed 0
    repro-hpcsched synth sweep --imbalances 1.5,4.0 --ranks 16,64
    repro-hpcsched synth convergence --ranks 64 --revert-at 9
    repro-hpcsched cluster --nodes 16 --iterations 3 --json
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Any, Dict, Optional, Sequence

from repro.experiments.registry import all_ids, run_by_id


def _print_result(exp_id: str, result) -> None:
    from repro.analysis.tables import format_characterization_table, format_comparison
    from repro.experiments.common import ExperimentResult

    if isinstance(result, dict) and result and all(
        isinstance(v, ExperimentResult) for v in result.values()
    ):
        paper_exec = _paper_exec_for(exp_id)
        print(format_characterization_table(list(result.values()), title=exp_id))
        if paper_exec:
            print()
            print(format_comparison(result, paper_exec, title="vs. paper:"))
        return
    if isinstance(result, dict):
        for key, value in result.items():
            if isinstance(value, dict) and "gantt" in value:
                print(f"== {key} (exec {value.get('exec_time', 0):.2f}s) ==")
                print(value["gantt"])
            elif isinstance(value, str) and "\n" in value:
                print(value)
            else:
                print(f"{key}: {value}")
        return
    print(result)


def _paper_exec_for(exp_id: str):
    mapping = {
        "table3": "repro.experiments.metbench",
        "table4": "repro.experiments.metbenchvar",
        "table5": "repro.experiments.btmz",
        "table6": "repro.experiments.siesta",
    }
    mod_name = mapping.get(exp_id)
    if mod_name is None:
        return None
    import importlib

    return getattr(importlib.import_module(mod_name), "PAPER_EXEC", None)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-hpcsched",
        description=(
            "HPCSched reproduction (Boneti et al., SC 2008): run the "
            "paper's experiments on the simulated POWER5/Linux stack."
        ),
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list experiment ids")
    runp = sub.add_parser("run", help="run one experiment")
    runp.add_argument("experiment", help="experiment id (see 'list')")
    runp.add_argument(
        "--iterations", type=int, default=None, help="override iteration count"
    )
    runp.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra runner keyword override (repeatable); values are "
        "parsed as Python literals when possible",
    )
    runp.add_argument(
        "--seed", type=int, default=None,
        help="forward a seed to runners that accept one",
    )
    exp = sub.add_parser(
        "export",
        help="run one workload+scheduler and write trace artifacts "
        "(.prv, CSVs, gantt)",
    )
    exp.add_argument(
        "workload", choices=["metbench", "metbenchvar", "btmz", "siesta"]
    )
    exp.add_argument(
        "scheduler", choices=["cfs", "static", "uniform", "adaptive", "hybrid"]
    )
    exp.add_argument("--out", default="artifacts", help="output directory")
    exp.add_argument("--iterations", type=int, default=None)
    rep = sub.add_parser(
        "report",
        help="run the full evaluation (tables 1+3-6) and print the "
        "paper-vs-measured report",
    )
    rep.add_argument(
        "--quick", action="store_true",
        help="reduced iteration counts (fast smoke report)",
    )
    _add_campaign_parser(sub)
    val = sub.add_parser(
        "validate",
        help="fuzz the fluid-rate engine against the brute-force "
        "reference simulator (differential oracle)",
    )
    val.add_argument(
        "--fuzz", type=int, default=25, metavar="N",
        help="number of fuzzed scenarios (default 25)",
    )
    val.add_argument(
        "--seed", type=int, default=0, help="fuzz campaign seed (default 0)"
    )
    val.add_argument(
        "--dt", type=float, default=2e-5,
        help="reference-simulator time quantum in seconds (default 2e-5)",
    )
    val.add_argument(
        "--keep-going", action="store_true",
        help="keep fuzzing past the first divergence",
    )
    val.add_argument(
        "--pool", choices=["engine", "synth"], default="engine",
        help="scenario pool: the generic SPMD fuzzer (engine) or "
        "shapes drawn from the synth workload generators (synth)",
    )
    clu = sub.add_parser(
        "cluster",
        help="run the multi-node gang-scheduling experiment "
        "(paper §VI: block vs gang placement at cluster scale)",
    )
    clu.add_argument(
        "--nodes", type=int, default=2,
        help="cluster size in nodes of 4 logical CPUs (default 2)",
    )
    clu.add_argument(
        "--placement", choices=["block", "gang", "both"], default="both",
        help="rank placement strategy to run (default: both, with a "
        "speedup summary)",
    )
    clu.add_argument(
        "--ranks", type=int, default=None,
        help="MPI ranks on the generalized load ladder "
        "(default: 4 per node, one per logical CPU)",
    )
    clu.add_argument(
        "--iterations", type=int, default=None,
        help="barrier-synchronized iterations per rank (default 10)",
    )
    clu.add_argument(
        "--no-hpc", action="store_true",
        help="run plain CFS on every node instead of one HPCSched "
        "instance per node",
    )
    clu.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON object instead of the "
        "human-readable summary",
    )
    _add_synth_parser(sub)

    args = parser.parse_args(argv)
    if args.command == "list" or args.command is None:
        for exp_id in all_ids():
            print(exp_id)
        return 0
    if args.command == "run":
        return _run_single(args)
    if args.command == "export":
        return _export(args)
    if args.command == "report":
        return _report(quick=args.quick)
    if args.command == "campaign":
        return _campaign(args)
    if args.command == "validate":
        return _validate(args)
    if args.command == "cluster":
        return _cluster(args)
    if args.command == "synth":
        return _synth(args)
    parser.print_help()
    return 1


def _parse_params(pairs: Sequence[str]) -> Dict[str, Any]:
    """Parse repeated ``KEY=VALUE`` flags; values are Python literals
    when they parse as one, strings otherwise."""
    out: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            out[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            out[key] = raw
    return out


def _run_single(args) -> int:
    """``run``: one experiment through the campaign invocation path."""
    from repro.campaign.spec import RunSpec, invoke

    params = _parse_params(args.param)
    if args.iterations is not None:
        params.setdefault("iterations", args.iterations)
    spec = RunSpec(experiment=args.experiment, params=params, seed=args.seed)
    try:
        result, dropped = invoke(spec)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    for name in dropped:
        print(
            f"note: {args.experiment} does not accept {name!r}; ignored",
            file=sys.stderr,
        )
    _print_result(args.experiment, result)
    return 0


def _add_campaign_parser(sub) -> None:
    """Attach the ``campaign`` subcommand tree."""
    camp = sub.add_parser(
        "campaign",
        help="run/inspect experiment campaigns (parallel, cached)",
    )
    csub = camp.add_subparsers(dest="campaign_command")

    crun = csub.add_parser("run", help="execute a campaign")
    crun.add_argument(
        "name",
        nargs="?",
        default="paper-full",
        help="built-in campaign (paper-full, paper-quick, smoke, "
        "synth-sweep, synth-convergence) — ignored when --experiments "
        "is given",
    )
    crun.add_argument(
        "--experiments",
        default=None,
        help="comma-separated experiment ids for an ad-hoc campaign",
    )
    crun.add_argument(
        "--seeds", default=None,
        help="comma-separated seeds to cross with the experiments",
    )
    crun.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="campaign-wide runner override (repeatable)",
    )
    crun.add_argument("--jobs", type=int, default=1, help="worker processes")
    crun.add_argument(
        "--timeout", type=float, default=None, help="per-run timeout (s)"
    )
    crun.add_argument(
        "--retries", type=int, default=1,
        help="retry budget per run (default 1)",
    )
    crun.add_argument(
        "--backoff", type=float, default=0.5,
        help="base retry backoff (s), doubled per attempt",
    )
    crun.add_argument(
        "--no-cache", action="store_true",
        help="recompute everything; skip the content-addressed cache",
    )
    crun.add_argument(
        "--verify", type=int, default=1, metavar="N",
        help="re-run the N cheapest runs serially and assert "
        "byte-identical results (0 disables)",
    )
    crun.add_argument(
        "--out", default=None,
        help="campaign directory (default campaigns/<name>)",
    )

    for cmd, help_text in (
        ("status", "print the run table + totals of a stored campaign"),
        ("report", "status plus the paper-style aggregate tables"),
    ):
        p = csub.add_parser(cmd, help=help_text)
        p.add_argument(
            "target", nargs="?", default="paper-full",
            help="campaign directory or built-in name",
        )


def _add_synth_parser(sub) -> None:
    """Attach the ``synth`` subcommand tree."""
    syn = sub.add_parser(
        "synth",
        help="parameterized imbalance generators: scatter points, "
        "imbalance x ranks sweeps, step-change convergence timing",
    )
    ssub = syn.add_subparsers(dest="synth_command")

    sca = ssub.add_parser(
        "scatter",
        help="one synthetic_scatter point under each scheduler",
    )
    sca.add_argument(
        "--imbalance", type=float, default=2.0,
        help="target imbalance factor max/mean (default 2.0)",
    )
    sca.add_argument(
        "--ranks", type=int, default=8,
        help="MPI ranks, one per logical CPU (default 8)",
    )
    sca.add_argument("--iterations", type=int, default=10)
    sca.add_argument("--seed", type=int, default=0)
    sca.add_argument(
        "--placement", choices=["paired", "bad", "shuffled"],
        default="paired",
        help="how loads map onto SMT cores (default paired: "
        "heavy-with-light, the regime priorities can fix)",
    )

    swe = ssub.add_parser(
        "sweep",
        help="synthetic_scatter over an imbalance x ranks grid",
    )
    swe.add_argument(
        "--imbalances", default="1.0,1.5,2.0,4.0",
        help="comma-separated target imbalance factors "
        "(default 1.0,1.5,2.0,4.0)",
    )
    swe.add_argument(
        "--ranks", default="4,16,64",
        help="comma-separated rank counts (default 4,16,64); "
        "infeasible cells (imbalance > ranks) are dropped",
    )
    swe.add_argument("--iterations", type=int, default=5)
    swe.add_argument("--seed", type=int, default=0)

    con = ssub.add_parser(
        "convergence",
        help="step-change reaction time: epochs/sim-seconds until the "
        "detector's measured imbalance recovers after a load swap",
    )
    con.add_argument("--ranks", type=int, default=16)
    con.add_argument(
        "--imbalance", type=float, default=1.5,
        help="SMT-pair imbalance factor in [1, 2] (default 1.5)",
    )
    con.add_argument("--iterations", type=int, default=12)
    con.add_argument(
        "--step-at", type=int, default=None,
        help="0-based iteration of the load swap (default: midpoint)",
    )
    con.add_argument(
        "--revert-at", type=int, default=None,
        help="swap back at this iteration (measures re-convergence)",
    )
    con.add_argument(
        "--eps", type=float, default=None,
        help="convergence threshold in utilization points (default: "
        "auto from the pre-step steady state)",
    )

    for p in (sca, swe, con):
        p.add_argument(
            "--schedulers", default=None,
            help="comma-separated scheduler list (default: "
            "cfs,uniform,adaptive; convergence: uniform,adaptive)",
        )
        p.add_argument(
            "--json", action="store_true",
            help="emit one machine-readable JSON object",
        )


def _synth(args) -> int:
    """``synth``: run the imbalance-generator experiments."""
    import json

    from repro.campaign.spec import summarize_result
    from repro.experiments.synth import (
        run_synth_convergence,
        run_synth_scatter,
        run_synth_sweep,
    )

    def scheds(default):
        if args.schedulers is None:
            return default
        return tuple(s.strip() for s in args.schedulers.split(",") if s.strip())

    if args.synth_command == "scatter":
        try:
            results = run_synth_scatter(
                imbalance=args.imbalance,
                ranks=args.ranks,
                iterations=args.iterations,
                seed=args.seed,
                placement=args.placement,
                schedulers=scheds(("cfs", "uniform", "adaptive")),
            )
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(summarize_result(results), indent=2, sort_keys=True))
            return 0
        print(
            f"synthetic_scatter: imbalance {args.imbalance:g} x "
            f"{args.ranks} ranks, {args.placement} placement"
        )
        _print_exec_rows(results)
        return 0

    if args.synth_command == "sweep":
        try:
            imbalances = [float(x) for x in args.imbalances.split(",") if x.strip()]
            ranks = [int(x) for x in args.ranks.split(",") if x.strip()]
            result = run_synth_sweep(
                imbalances=imbalances,
                ranks=ranks,
                iterations=args.iterations,
                seed=args.seed,
                schedulers=scheds(("cfs", "adaptive")),
            )
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(summarize_result(result), indent=2, sort_keys=True))
            return 0
        print("synthetic_scatter sweep (exec seconds per scheduler):")
        for cell in result["cells"]:
            row = "  ".join(
                f"{sched}={res.exec_time:8.3f}s"
                for sched, res in cell["results"].items()
            )
            print(
                f"  I={cell['imbalance']:<4g} N={cell['ranks']:<3d}  {row}"
            )
        return 0

    if args.synth_command == "convergence":
        try:
            results = run_synth_convergence(
                ranks=args.ranks,
                imbalance=args.imbalance,
                iterations=args.iterations,
                step_at=args.step_at,
                revert_at=args.revert_at,
                eps=args.eps,
                schedulers=scheds(("uniform", "adaptive")),
            )
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(summarize_result(results), indent=2, sort_keys=True))
            return 0
        print(
            f"synthetic_convergence: {args.ranks} ranks, pair imbalance "
            f"{args.imbalance:g}, step at iteration "
            f"{args.step_at if args.step_at is not None else args.iterations // 2}"
        )
        for sched, entry in results.items():
            for key in ("convergence", "reconvergence"):
                if key not in entry:
                    continue
                c = entry[key]
                when = (
                    f"{c['epochs']} epochs / {c['sim_time']:.3f}s"
                    if c["converged"]
                    else f"NOT within {c['epochs_observed']} epochs"
                )
                print(
                    f"  {sched:<9} {key:<13} eps={c['eps']:5.2f}pt  "
                    f"{when}  residual spread {c['residual_spread']:.2f}pt"
                )
        return 0

    print("usage: repro-hpcsched synth {scatter,sweep,convergence}", file=sys.stderr)
    return 1


def _print_exec_rows(results) -> None:
    """Exec-time rows (+ improvement over cfs when present)."""
    base = results.get("cfs")
    for sched, res in results.items():
        note = ""
        if base is not None and sched != "cfs" and base.exec_time > 0:
            note = f"  ({res.improvement_over(base):+.1f}% vs cfs)"
        print(f"  {sched:<9} exec {res.exec_time:8.3f}s{note}")


def _campaign_dir(target: str):
    """Map a campaign name or path to its store directory."""
    from pathlib import Path

    path = Path(target)
    if path.is_dir() or path.suffix or "/" in target:
        return path
    return Path("campaigns") / target


def _campaign(args) -> int:
    """Dispatch the ``campaign`` sub-subcommands."""
    from pathlib import Path

    from repro.campaign import (
        CampaignConsistencyError,
        CampaignExecutor,
        CampaignStore,
        ProgressPrinter,
        ResultCache,
        builtin_campaign,
        expand_matrix,
        render_report,
        render_status,
    )

    if args.campaign_command in ("status", "report"):
        root = _campaign_dir(args.target)
        if not (root / "manifest.json").exists():
            print(f"no campaign found under {root}/", file=sys.stderr)
            return 2
        store = CampaignStore(root)
        render = render_status if args.campaign_command == "status" else render_report
        print(render(store))
        return 0
    if args.campaign_command != "run":
        print("usage: repro-hpcsched campaign {run,status,report}", file=sys.stderr)
        return 1

    if args.experiments:
        ids = [x.strip() for x in args.experiments.split(",") if x.strip()]
        seeds = (
            [int(s) for s in args.seeds.split(",")]
            if args.seeds
            else [None]
        )
        campaign = expand_matrix(
            "adhoc", ids, seeds=seeds, params=_parse_params(args.param),
            description="ad-hoc CLI campaign",
        )
    else:
        try:
            campaign = builtin_campaign(args.name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        if args.param or args.seeds:
            seeds = (
                [int(s) for s in args.seeds.split(",")] if args.seeds else [None]
            )
            campaign = expand_matrix(
                campaign.name,
                sorted({r.experiment for r in campaign.runs}),
                seeds=seeds,
                params=_parse_params(args.param),
                description=campaign.description,
            )

    root = Path(args.out) if args.out else _campaign_dir(campaign.name)
    store = CampaignStore(root)
    cache = ResultCache(root / "cache", enabled=not args.no_cache)
    try:
        executor = CampaignExecutor(
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
            cache=cache,
            store=store,
            on_event=ProgressPrinter(len(campaign.runs)),
            verify=args.verify,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        result = executor.run(campaign)
    except CampaignConsistencyError as exc:
        print(f"DETERMINISM VIOLATION: {exc}", file=sys.stderr)
        return 3
    totals = result.summary()
    print(
        f"\ncampaign {campaign.name}: {totals['ok']}/{totals['runs']} OK, "
        f"{totals['failed']} failed, cache-hit ratio "
        f"{totals['cache_hit_ratio']:.0%}, wall {totals['wall_time']:.2f}s"
        + (f", verified {totals['verified']} parallel==serial" if totals["verified"] else "")
    )
    print(f"artifacts: {store.manifest_path} + {store.runs_path}")
    return 0 if not result.failed else 1


def _validate(args) -> int:
    """``validate``: fuzz scenarios through the differential oracle."""
    from repro.validate import run_fuzz

    def progress(case) -> None:
        status = "ok" if case.ok else "DIVERGED"
        refined = " (refined)" if case.refined else ""
        print(
            f"  [{case.index + 1:>3}/{args.fuzz}] {case.label:<16} "
            f"{status}{refined}  events={case.events} "
            f"exec={case.exec_time:.4f}s"
        )

    try:
        report = run_fuzz(
            count=args.fuzz,
            seed=args.seed,
            dt=args.dt,
            stop_on_divergence=not args.keep_going,
            on_case=progress,
            pool=args.pool,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.ok else 1


def _cluster(args) -> int:
    """``cluster``: block vs gang placement on an N-node cluster."""
    import json

    from repro.cluster.experiment import (
        DEFAULT_ITERATIONS,
        ladder_loads,
        run_cluster,
    )

    n_ranks = args.ranks if args.ranks is not None else 4 * args.nodes
    iterations = (
        args.iterations if args.iterations is not None else DEFAULT_ITERATIONS
    )
    try:
        loads = ladder_loads(n_ranks)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    strategies = (
        ["block", "gang"] if args.placement == "both" else [args.placement]
    )
    if not args.json:
        print(
            f"cluster: {args.nodes} nodes x 4 CPUs, {n_ranks} ranks, "
            f"{iterations} iterations, "
            f"{'CFS only' if args.no_hpc else 'HPCSched per node'}"
        )
    exec_times = {}
    out: Dict[str, Any] = {
        "nodes": args.nodes,
        "ranks": n_ranks,
        "iterations": iterations,
        "hpcsched": not args.no_hpc,
        "placements": {},
    }
    for strategy in strategies:
        try:
            result = run_cluster(
                strategy,
                loads=loads,
                iterations=iterations,
                n_nodes=args.nodes,
                use_hpc=not args.no_hpc,
            )
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        exec_times[strategy] = result.exec_time
        node_loads = result.node_loads
        spread = max(node_loads.values()) - min(node_loads.values())
        out["placements"][strategy] = {
            "exec_time": result.exec_time,
            "node_load_spread": spread,
            "events": result.events,
            "rank_exit": {str(r): t for r, t in sorted(result.rank_exit.items())},
        }
        if not args.json:
            print(
                f"  {strategy:<5} exec {result.exec_time:8.2f}s   "
                f"node-load spread {spread:6.2f}   "
                f"events {result.events:,}"
            )
    if len(exec_times) == 2 and exec_times["gang"] > 0:
        speedup = exec_times["block"] / exec_times["gang"]
        out["gang_speedup_over_block"] = speedup
        if not args.json:
            print(f"  gang speedup over block: {speedup:.2f}x")
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _report(quick: bool = False) -> int:
    """Regenerate the whole evaluation and print EXPERIMENTS-style
    comparisons."""
    import importlib

    from repro.analysis.tables import format_characterization_table, format_comparison

    t1 = run_by_id("table1")
    print(t1["rendered"])
    status = "exact" if t1["table1_exact"] and t1["table2_exact"] else "MISMATCH"
    print(f"Tables I/II: {status}\n")

    plans = {
        "table3": ("metbench", {"iterations": 8} if quick else {}),
        "table4": ("metbenchvar", {"iterations": 9, "k": 3} if quick else {}),
        "table5": ("btmz", {"iterations": 30} if quick else {}),
        "table6": ("siesta", {"scf_steps": 4} if quick else {}),
    }
    for exp_id, (mod_name, kwargs) in plans.items():
        mod = importlib.import_module(f"repro.experiments.{mod_name}")
        results = run_by_id(exp_id, **kwargs)
        title = f"=== {exp_id} ({mod_name}) ==="
        print(title)
        print(format_characterization_table(list(results.values())))
        if not quick:
            print(format_comparison(results, mod.PAPER_EXEC, mod.PAPER_COMP))
        print()
    return 0


def _export(args) -> int:
    import importlib

    from repro.trace.export import write_bundle

    mod = importlib.import_module(f"repro.experiments.{args.workload}")
    kwargs = {"keep_trace": True}
    if args.iterations is not None and args.workload != "siesta":
        kwargs["iterations"] = args.iterations
    try:
        result = mod.run_one(args.scheduler, **kwargs)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    paths = write_bundle(result, args.out)
    print(f"exec time: {result.exec_time:.2f}s")
    for p in paths:
        print(f"wrote {p}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
