"""The repository benchmark: host time of what users run, split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload cluster_4096r --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

Each *round* runs in a fresh child process (so ``ru_maxrss`` is that
round's own peak), with every ``REPRO_*`` variable removed from its
environment.  A run repeats rounds, at least three and more until
``--seconds`` have passed, and reports the median of each end-to-end
metric.  Inside each untraced round a sampler thread times a fixed
chunk of reference work (``hostspeed.py``); the round's host times are
scaled by how fast the host ran that chunk, so they read as seconds on
the host that defined the benchmark.  With ``--trace 1`` one
more round runs with the span tracer installed (see ``tracer.py``) and
the per-layer metrics are reported instead.

Every operation's simulated output is checked: on seed 0 against the
digests in ``reference.json``, on every seed against the workload's
invariants and against the first round of the same run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402  (the benchmark's own modules)
import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"

#: name -> unit of the end-to-end metrics (untraced rounds, medians).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: The end-to-end metrics that are host times, scaled by each round's speed.
TIMES = ("setup_s", "wall_s", "cpu_s")

#: name -> unit of the per-layer metrics (``--trace 1``).
PER_LAYER = {
    "simcore.events": "count",
    "simcore.scheduled": "count",
    "simcore.delivered_ratio": "ratio",
    "simcore.us_per_event": "us",
    "simcore.self_s": "s",
    "kernel.self_s": "s",
    "kernel.wake_ups": "count",
    "kernel.rescheds": "count",
    "kernel.migrations": "count",
    "kernel.hw_priority_sets": "count",
    "power5.self_s": "s",
    "power5.speed_calls": "count",
    "hpcsched.self_s": "s",
    "hpcsched.decide_calls": "count",
    "hpcsched.priority_changes": "count",
    "mpi.self_s": "s",
    "mpi.messages": "count",
    "mpi.collective_arrivals": "count",
    "mpi.us_per_collective": "us",
    "cluster.build_s": "s",
    "cluster.self_s": "s",
    "trace.records": "count",
    "trace.self_s": "s",
    "campaign.cold_s": "s",
    "campaign.warm_s": "s",
    "campaign.run_s_sum": "s",
    "campaign.worker_idle_s": "s",
    "campaign.cache_hit_ratio_warm": "ratio",
    "other.self_s": "s",
    "tracing.overhead": "ratio",
    "scale.us_per_event_ratio": "ratio",
}

#: The workload measured beside each cluster workload for the scale ratio.
SIBLING = {"cluster_256r": "cluster_4096r", "cluster_4096r": "cluster_256r"}

#: Untraced rounds per run, at least: the reported value is their median.
MIN_ROUNDS = 3

#: A run must end within this many seconds, traced pass included.
RUN_BUDGET_S = 165.0


# ----------------------------------------------------------------------
# Child: one round in a fresh process
# ----------------------------------------------------------------------


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def child_round(args) -> dict:
    """Set up and run one round; return its measurements."""
    sampler = None
    if not args.trace and args.workload not in workloads.FORKS:
        sampler = hostspeed.Sampler()
        sampler.start()
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import repro  # noqa: F401  (import cost is set-up cost)

    tracer = None
    if args.trace:
        from repro.hpcsched.detector import LoadImbalanceDetector
        from repro.mpi.runtime import MPIRuntime
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.capture(LoadImbalanceDetector, "detectors")
        tracer.capture(MPIRuntime, "runtimes")

    wl = workloads.make(args.workload, args.seed, args.size, Path(args.workdir))
    wl.setup()
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.reset()
    cpu0 = _cpu_s()
    t1 = time.perf_counter()
    ops = wl.run()
    wall_s = time.perf_counter() - t1
    if sampler is not None:
        sampler.stop()
    # Campaign pools are torn down without waiting; a worker's CPU time
    # reaches RUSAGE_CHILDREN only once it is reaped.
    for proc in multiprocessing.active_children():
        proc.join(30)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu_s() - cpu0,
        "peak_rss_mb": _peak_rss_mb(),
        "speed": sampler.speed() if sampler is not None else 1.0,
        "ops": [[op.name, op.digest, op.problems] for op in ops],
        "extras": wl.extras,
        "events": wl.events(),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_self(wall_s)
        out["counts"] = _trace_counts(tracer)
        out["top"] = sorted(
            ((key, stat[0], stat[1]) for key, stat in tracer.stats.items() if stat[0]),
            key=lambda row: -row[2],
        )[:15]
    return out


def _trace_counts(tracer) -> Dict[str, float]:
    inst = tracer.instances
    return {
        "simcore.events": sum(s.events_processed for s in inst.get("sims", [])),
        "simcore.scheduled": tracer.scheduled,
        "kernel.wake_ups": tracer.calls("kernel", "Kernel.wake_up"),
        "kernel.rescheds": tracer.calls("kernel", "Kernel.resched"),
        "kernel.migrations": tracer.calls("kernel", "Kernel.migrate"),
        "kernel.hw_priority_sets": tracer.calls("kernel", "Kernel.set_hw_priority"),
        "power5.speed_calls": tracer.calls(
            "power5", ".speed", ".speed_pair", ".context_speed", ".context_speeds"
        ),
        "hpcsched.decide_calls": tracer.calls("hpcsched", ".decide"),
        "hpcsched.priority_changes": sum(
            d.priority_changes for d in inst.get("detectors", [])
        ),
        "mpi.messages": sum(r.messages_sent for r in inst.get("runtimes", [])),
        "mpi.collective_arrivals": tracer.calls("mpi", "MPIRuntime.collective_arrive"),
        "mpi.us_per_collective": 1e6
        * tracer.mean_span_s("mpi:MPIRuntime.collective_arrive"),
        "trace.records": tracer.calls("trace", "TraceCollector.record"),
    }


# ----------------------------------------------------------------------
# Parent: rounds, checks, medians
# ----------------------------------------------------------------------


def scrubbed_env() -> Dict[str, str]:
    """The ``REPRO_*`` variables this process was started with."""
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def fingerprint() -> dict:
    return {
        "scrubbed": scrubbed_env(),
        "usable_cpus": workloads.usable_cpus(),
        "python": platform.python_version(),
        "kernel": platform.release(),
    }


class RoundError(RuntimeError):
    pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # every member has already exited


def spawn_round(
    workload: str, seed: int, size: str, trace: bool, timeout: float
) -> dict:
    """Run one round in a child process and return its measurements."""
    workdir = Path.cwd() / ".perfbench_work" / f"{os.getpid()}-{workload}"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--trace", "1" if trace else "0",
        "--workdir", str(workdir),
    ]
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise RoundError(f"{workload} round exceeded {timeout:.0f}s") from None
    finally:
        # The child leads its own process group: this also stops any
        # campaign worker it left behind.
        _kill_group(proc.pid)
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    if proc.returncode != 0:
        raise RoundError(
            f"{workload} round exited {proc.returncode}: {stderr.strip()[-2000:]}"
        )
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RoundError(f"{workload} round printed no result") from None


class Checker:
    """Counts operations and the ones whose output is wrong."""

    def __init__(self, reference: Optional[Dict[str, str]]) -> None:
        self.reference = reference
        self.first: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, label: str, ops: List[list]) -> None:
        seen = set()
        for name, digest, problems in ops:
            self.attempted += 1
            seen.add(name)
            if problems:
                self._fail(f"{label} {name}: {'; '.join(problems)}")
            elif self.reference is not None and self.reference.get(name) != digest:
                self._fail(f"{label} {name}: output differs from the reference")
            elif self.first.setdefault(name, digest) != digest:
                self._fail(f"{label} {name}: output differs from the first round")
        for name in sorted(set(self.reference or ()) - seen):
            self.attempted += 1
            self._fail(f"{label} {name}: operation missing")

    def absorb(self, other: "Checker") -> None:
        """Add another checker's counts (a second workload's rounds)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages += other.messages

    def lost_round(self, message: str) -> None:
        self.attempted += 1
        self._fail(message)


def load_reference(path: Path, size: str, workload: str, seed: int):
    if seed != 0:
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}  # a missing reference fails every op on seed 0
    return data.get(size, {}).get(workload, {})


def measure(
    workload: str,
    seed: int,
    seconds: float,
    size: str,
    trace: bool,
    checker: Checker,
    min_rounds: int = MIN_ROUNDS,
    budget_s: float = RUN_BUDGET_S,
) -> dict:
    """At least ``min_rounds`` rounds, and more until ``seconds`` pass;
    then (``trace``) one traced round.  Returns the round records:
    ``{"rounds": [...], "traced": ...}``."""
    start = time.monotonic()
    rounds: List[dict] = []
    longest = 0.0
    while True:
        began = time.monotonic()
        elapsed = began - start
        reserve = 4.0 * longest + 5.0 if trace else 0.0
        try:
            rec = spawn_round(workload, seed, size, False, budget_s - elapsed - reserve)
        except RoundError as exc:
            checker.lost_round(str(exc))
            break
        checker.check(f"round {len(rounds) + 1}", rec["ops"])
        rounds.append(rec)
        now = time.monotonic()
        longest = max(longest, now - began)
        if now - start >= seconds and len(rounds) >= min_rounds:
            break
        if now - start + longest * 1.2 + reserve > budget_s:
            break
    traced = None
    if trace and rounds:
        try:
            traced = spawn_round(
                workload, seed, size, True, budget_s - (time.monotonic() - start)
            )
            checker.check("traced round", traced["ops"])
        except RoundError as exc:
            checker.lost_round(str(exc))
    return {"rounds": rounds, "traced": traced}


def _median(rounds: List[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def _scaled_median(rounds: List[dict], key: str) -> float:
    """Median of a host time, each round's scaled by its speed."""
    return statistics.median(r[key] * r["speed"] for r in rounds)


def end_to_end(rounds: List[dict]) -> Dict[str, float]:
    return {
        name: (_scaled_median if name in TIMES else _median)(rounds, name)
        for name in END_TO_END
    }


def us_per_event(rounds: List[dict], events: Optional[float] = None) -> float:
    """Untraced, scaled run-phase µs per delivered event (0 when unknown)."""
    events = events if events is not None else rounds[0].get("events")
    if not events:
        return 0.0
    return 1e6 * _scaled_median(rounds, "wall_s") / events


def per_layer(rec: dict, sibling_us: Optional[float], workload: str) -> Dict[str, float]:
    rounds, traced = rec["rounds"], rec["traced"]
    counts = traced["counts"]
    out = {name: 0.0 for name in PER_LAYER}
    out.update(counts)
    for layer, self_s in traced["layers"].items():
        out[f"{layer}.self_s"] = self_s
    events = counts["simcore.events"]
    out["simcore.delivered_ratio"] = (
        events / counts["simcore.scheduled"] if counts["simcore.scheduled"] else 0.0
    )
    out["simcore.us_per_event"] = us_per_event(rounds, events)
    for key in rounds[0]["extras"]:
        scaled = PER_LAYER[key] == "s"
        out[key] = statistics.median(
            r["extras"][key] * (r["speed"] if scaled else 1.0) for r in rounds
        )
    out["tracing.overhead"] = traced["wall_s"] / _median(rounds, "wall_s")
    if sibling_us:
        mine = out["simcore.us_per_event"]
        if workload == "cluster_4096r":
            out["scale.us_per_event_ratio"] = mine / sibling_us
        else:
            out["scale.us_per_event_ratio"] = sibling_us / mine
    return {name: float(out[name]) for name in PER_LAYER}


def _result(checker: Checker, metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def _print_layers(workload: str, metrics: Dict[str, float], top) -> None:
    print(f"per-layer ({workload}, traced round):")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {PER_LAYER[name]}")
    if top:
        print("  busiest spans (calls, total s incl. children):")
        for key, calls, total in top:
            print(f"    {key:<60} {calls:>10} {total:>10.4f}")


def run_one(args, checker: Checker) -> Optional[dict]:
    rec = measure(
        args.workload, args.seed, args.seconds, args.size, bool(args.trace), checker
    )
    if not rec["rounds"]:
        return None
    rounds = rec["rounds"]
    e2e = end_to_end(rounds)
    print(f"{args.workload}: {len(rounds)} untraced round(s), seed {args.seed}")
    for name, value in e2e.items():
        raw = f"  raw {_median(rounds, name):.6f}" if name in TIMES else ""
        print(f"  {name:<12} {value:>12.6f} {END_TO_END[name]}  (median){raw}")
    print(f"  host speed   {_median(rounds, 'speed'):>12.4f} x reference (median)")
    if rounds[0].get("events"):
        print(f"  simcore.us_per_event {us_per_event(rounds):.3f} us (untraced)")
    if not args.trace:
        return _result(checker, e2e, END_TO_END)
    if rec["traced"] is None:
        return None
    sibling_us = None
    if args.workload in SIBLING:
        name = SIBLING[args.workload]
        sib_checker = Checker(load_reference(args.reference, args.size, name, args.seed))
        sib = measure(name, args.seed, 0, args.size, False, sib_checker, min_rounds=1)
        checker.absorb(sib_checker)
        if sib["rounds"]:
            sibling_us = us_per_event(sib["rounds"])
    metrics = per_layer(rec, sibling_us, args.workload)
    _print_layers(args.workload, metrics, rec["traced"].get("top"))
    return _result(checker, metrics, PER_LAYER)


def run_all(args, checker: Checker) -> Optional[dict]:
    """Every workload, untraced and traced: the one-command report.
    Metrics are keyed ``<workload>.<metric>``."""
    records = {}
    failed_share = {}
    for name in workloads.WORKLOADS:
        own = Checker(load_reference(args.reference, args.size, name, args.seed))
        rec = measure(name, args.seed, args.seconds, args.size, True, own)
        checker.absorb(own)
        failed_share[name] = own.failed / max(own.attempted, 1)
        if rec["rounds"] and rec["traced"] is not None:
            records[name] = rec
    if not records:
        return None
    us = {n: us_per_event(records[n]["rounds"]) for n in SIBLING if n in records}
    metrics: Dict[str, float] = {}
    units: Dict[str, str] = {}
    print("\nend to end (untraced medians):")
    print(f"  {'workload':<22}" + "".join(f"{m:>14}" for m in END_TO_END) + "  failed share")
    for name, rec in records.items():
        e2e = end_to_end(rec["rounds"])
        print(
            f"  {name:<22}" + "".join(f"{v:>14.4f}" for v in e2e.values())
            + f"  {failed_share[name]:.3f}"
        )
        layers = per_layer(rec, us.get(SIBLING.get(name, "")), name)
        for key, value in (*e2e.items(), *layers.items()):
            metrics[f"{name}.{key}"] = value
            units[f"{name}.{key}"] = END_TO_END.get(key) or PER_LAYER[key]
    print("  units: " + ", ".join(f"{k} {v}" for k, v in END_TO_END.items()))
    print("\nscale read-out (untraced):")
    for name, value in us.items():
        print(f"  {name:<22} simcore.us_per_event {value:8.3f} us")
    if len(us) == 2:
        print(f"  scale.us_per_event_ratio {us['cluster_4096r'] / us['cluster_256r']:.3f}")
    for name, rec in records.items():
        print()
        layers = {k: metrics[f"{name}.{k}"] for k in PER_LAYER}
        _print_layers(name, layers, rec["traced"].get("top"))
    return _result(checker, metrics, units)


def write_reference(args) -> int:
    """Record seed-0 digests of every workload at every size."""
    data: Dict[str, Dict[str, Dict[str, str]]] = {}
    for size in workloads.SIZES:
        for name in workloads.WORKLOADS:
            rec = spawn_round(name, 0, size, False, RUN_BUDGET_S)
            bad = [f"{n}: {p}" for n, _d, p in rec["ops"] if p]
            if bad:
                print(f"{size}/{name}: refusing to record failing ops: {bad}", file=sys.stderr)
                return 1
            data.setdefault(size, {})[name] = {n: d for n, d, _p in rec["ops"]}
            print(f"{size}/{name}: {len(rec['ops'])} ops")
    args.reference.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.reference}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, help=f"one of {', '.join(workloads.WORKLOADS)}, or all"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=workloads.SIZES, default="full",
        help="tiny shrinks every workload (for the benchmark's own tests)",
    )
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record the seed-0 output digests of every workload and size",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(child_round(args)))
        return 0
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    print("env: " + json.dumps(fingerprint(), sort_keys=True))
    if args.write_reference:
        return write_reference(args)
    if args.workload == "all":
        checker = Checker(None)  # collects the per-workload checkers
        result = run_all(args, checker)
    elif args.workload in workloads.WORKLOADS:
        checker = Checker(load_reference(args.reference, args.size, args.workload, args.seed))
        result = run_one(args, checker)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    if result is None:
        for message in checker.messages:
            print(message, file=sys.stderr)
        print("perfbench: no round completed", file=sys.stderr)
        return 1
    for message in checker.messages:
        print(f"FAILED {message}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
