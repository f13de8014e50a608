"""The benchmark's workloads, driven through the simulator's public API.

A workload has two phases.  ``setup`` builds the inputs and everything
that has to exist before simulated time first advances (imports and
registry load are charged to it by the caller); ``run`` performs the
operations and returns one :class:`Op` per unit of work.  Each op
carries a digest of its simulated output, for the reference check, and
the invariant violations found in it (empty when the op is sound).

Seed 0 is exactly what ``repro report --quick`` / ``repro cluster`` /
``repro campaign run paper-quick`` run.  Other seeds change only the
inputs, through public constructors: SIESTA's ``seed``, a +-1% jitter
on the cluster load ladder, and the campaign's run seed.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

SIZES = ("full", "tiny")


@dataclass
class Op:
    name: str
    digest: str = ""
    problems: List[str] = field(default_factory=list)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def guarded(name: str, fn) -> Op:
    """Run ``fn() -> (text, problems)`` as one op; an exception fails it."""
    try:
        text, problems = fn()
    except Exception as exc:  # an op failure is reported, not fatal
        return Op(name, problems=[f"raised {type(exc).__name__}: {exc}"])
    return Op(name, digest(text), list(problems))


class Workload:
    """Base: subclasses set ``name`` and implement setup/run."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}, got {size!r}")
        self.seed = seed
        self.size = size
        self.workdir = workdir
        #: Extra measurements for the per-layer report (seconds/counts).
        self.extras: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> List[Op]:
        raise NotImplementedError

    def events(self) -> Optional[int]:
        """Events the engine delivered in ``run``, when known untraced."""
        return None


# ----------------------------------------------------------------------
# paper_report: Tables I and III-VI, as `repro report --quick` runs them
# ----------------------------------------------------------------------

#: (table id, run_by_id kwargs) at the `report --quick` sizes.
REPORT_PLANS = {
    "full": [
        ("table3", {"iterations": 8}),
        ("table4", {"iterations": 9, "k": 3}),
        ("table5", {"iterations": 30}),
    ],
    "tiny": [("table3", {"iterations": 2})],
}
SIESTA_SCF_STEPS = {"full": 4, "tiny": 1}


def _experiment_text(res) -> str:
    rows = ";".join(
        f"{name}={task.pct_comp!r}" for name, task in sorted(res.tasks.items())
    )
    return f"{res.exec_time!r}|{rows}"


def _experiment_problems(res) -> List[str]:
    problems = []
    if not (math.isfinite(res.exec_time) and res.exec_time > 0):
        problems.append(f"exec_time {res.exec_time!r} is not finite and > 0")
    for name, task in res.tasks.items():
        if not (math.isfinite(task.pct_comp) and 0.0 <= task.pct_comp <= 100.0 + 1e-9):
            problems.append(f"{name} %Comp {task.pct_comp!r} out of [0, 100]")
    return problems


class PaperReport(Workload):
    name = "paper_report"

    def setup(self) -> None:
        import inspect

        from repro.experiments.registry import all_ids
        from repro.workloads.noise import NoiseDaemons
        from repro.workloads.siesta import Siesta

        all_ids()  # registry load
        base_seed = inspect.signature(Siesta).parameters["seed"].default
        steps = SIESTA_SCF_STEPS[self.size]
        # One workload object per scheduler, as `run_table6` builds them.
        self.siesta = {
            sched: (Siesta(scf_steps=steps, seed=base_seed + self.seed), NoiseDaemons())
            for sched in ("cfs", "uniform", "adaptive")
        }

    def run(self) -> List[Op]:
        from repro.experiments.common import run_experiment
        from repro.experiments.registry import run_by_id

        ops = []
        table1 = {}

        def run_table1():
            table1.update(run_by_id("table1"))
            problems = [
                f"{key} is false"
                for key in ("table1_exact", "table2_exact")
                if not table1[key]
            ]
            return table1["rendered"], problems

        ops.append(guarded("table1", run_table1))
        for exp_id, kwargs in REPORT_PLANS[self.size]:
            try:
                results = run_by_id(exp_id, **kwargs)
            except Exception as exc:
                ops.append(Op(exp_id, problems=[f"raised {type(exc).__name__}: {exc}"]))
                continue
            for sched, res in results.items():
                ops.append(
                    guarded(
                        f"{exp_id}/{sched}",
                        lambda res=res: (_experiment_text(res), _experiment_problems(res)),
                    )
                )
        for sched, (workload, noise) in self.siesta.items():

            def run_siesta(sched=sched, workload=workload, noise=noise):
                res = run_experiment(workload, sched, noise=noise, keep_trace=False)
                return _experiment_text(res), _experiment_problems(res)

            ops.append(guarded(f"table6/{sched}", run_siesta))
        return ops


# ----------------------------------------------------------------------
# cluster_256r / cluster_4096r: serial `repro cluster`, block and gang
# ----------------------------------------------------------------------

#: (nodes, iterations) per size.  4096 ranks run the `repro cluster`
#: default of 10 iterations; the 256-rank iteration count makes its run
#: phase about as long as the 4096-rank one.
CLUSTER_SHAPES = {
    "cluster_256r": {"full": (64, 300), "tiny": (2, 3)},
    "cluster_4096r": {"full": (1024, 10), "tiny": (4, 2)},
}


def _rank_program(load: float, iterations: int):
    """The `repro cluster` rank: compute its ladder load, then barrier."""

    def factory(mpi):
        def prog():
            for _ in range(iterations):
                yield mpi.compute(load)
                yield mpi.barrier()

        return prog()

    return factory


def cluster_loads(n_ranks: int, seed: int) -> List[float]:
    """The `repro cluster` ladder; seeds other than 0 jitter each load
    by up to +-1% (re-sorted, so light ranks stay first)."""
    from repro.cluster.experiment import ladder_loads

    loads = ladder_loads(n_ranks)
    if seed:
        rng = random.Random(seed)
        loads = sorted(load * (1.0 + rng.uniform(-0.01, 0.01)) for load in loads)
    return loads


class ClusterRun(Workload):
    def __init__(self, name: str, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.name = name
        self.nodes, self.iterations = CLUSTER_SHAPES[name][size]

    def setup(self) -> None:
        from repro.cluster.cluster import Cluster
        from repro.cluster.gang import block_placement, gang_placement
        from repro.hpcsched import UniformHeuristic

        t0 = time.perf_counter()
        loads = cluster_loads(4 * self.nodes, self.seed)
        self.n_ranks = len(loads)
        self.clusters = {}
        for strategy in ("block", "gang"):
            cluster = Cluster(n_nodes=self.nodes, heuristic_factory=UniformHeuristic)
            cpn = cluster.cpus_per_node
            if strategy == "block":
                placement = block_placement(len(loads), self.nodes, cpn)
            else:
                placement = gang_placement(loads, self.nodes, cpn)
            cluster.launch(
                [_rank_program(load, self.iterations) for load in loads], placement
            )
            self.clusters[strategy] = cluster
        self.extras["cluster.build_s"] = time.perf_counter() - t0

    def run(self) -> List[Op]:
        ops = []
        for strategy, cluster in self.clusters.items():

            def run_one(cluster=cluster):
                exec_time = cluster.run()
                exits = cluster.rank_exit
                problems = []
                if len(exits) != self.n_ranks:
                    problems.append(f"{len(exits)}/{self.n_ranks} ranks exited")
                if not math.isfinite(exec_time):
                    problems.append(f"exec_time {exec_time!r} is not finite")
                elif exits and exec_time < max(exits.values()):
                    problems.append("exec_time ends before the last rank exit")
                text = f"{exec_time!r}|" + ";".join(
                    f"{rank}={t!r}" for rank, t in sorted(exits.items())
                )
                return text, problems

            ops.append(guarded(strategy, run_one))
        return ops

    def events(self) -> Optional[int]:
        return sum(c.sim.events_processed for c in self.clusters.values())


# ----------------------------------------------------------------------
# campaign_paper_quick: the paper-quick preset, cold then warm
# ----------------------------------------------------------------------


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


class CampaignRun(Workload):
    name = "campaign_paper_quick"

    def setup(self) -> None:
        from repro.campaign import (
            CampaignExecutor,
            CampaignStore,
            ResultCache,
            builtin_campaign,
            expand_matrix,
        )
        from repro.campaign.spec import QUICK_PARAMS

        preset = "paper-quick" if self.size == "full" else "smoke"
        campaign = builtin_campaign(preset)
        if self.seed:
            campaign = expand_matrix(
                campaign.name,
                [r.experiment for r in campaign.runs],
                seeds=[self.seed],
                per_experiment_params=QUICK_PARAMS,
                description=campaign.description,
            )
        self.campaign = campaign
        root = self.workdir / "campaign"
        if root.exists():
            shutil.rmtree(root)
        self.jobs = usable_cpus() if self.size == "full" else 1
        self.cache = ResultCache(root / "cache")
        self.cache.source_token  # hash the sources now, not in the cold pass
        self.executor = CampaignExecutor(
            jobs=self.jobs, cache=self.cache, store=CampaignStore(root)
        )

    def run(self) -> List[Op]:
        from repro.campaign import STATUS_OK

        t0 = time.perf_counter()
        cold = self.executor.run(self.campaign)
        t1 = time.perf_counter()
        warm = self.executor.run(self.campaign)
        t2 = time.perf_counter()
        run_s_sum = sum(rec.wall_time for rec in cold.records.values())
        self.extras.update(
            {
                "campaign.cold_s": t1 - t0,
                "campaign.warm_s": t2 - t1,
                "campaign.run_s_sum": run_s_sum,
                "campaign.worker_idle_s": self.jobs * (t1 - t0) - run_s_sum,
                "campaign.cache_hit_ratio_warm": warm.cache_hit_ratio,
            }
        )
        ops = []
        for spec in self.campaign.runs:
            for label, result in (("cold", cold), ("warm", warm)):
                rec = result.records.get(spec.run_id)
                payload = result.payloads.get(spec.run_id)
                problems = []
                if rec is None or payload is None:
                    ops.append(Op(f"{label}/{spec.run_id}", problems=["no record"]))
                    continue
                if rec.status != STATUS_OK:
                    problems.append(f"status {rec.status}: {rec.error}")
                if label == "warm" and not rec.cache_hit:
                    problems.append("warm pass missed the cache")
                if label == "warm" and payload != cold.payloads.get(spec.run_id):
                    problems.append("warm payload differs from the cold one")
                ops.append(
                    Op(
                        f"{label}/{spec.run_id}",
                        hashlib.sha256(payload).hexdigest()[:20],
                        problems,
                    )
                )
        return ops


WORKLOADS = ("paper_report", "campaign_paper_quick", "cluster_256r", "cluster_4096r")

#: Workloads that fork worker processes.  No host-speed sampler thread
#: runs in them, since a thread must not run across a fork; their
#: rounds are not scaled.
FORKS = ("campaign_paper_quick",)


def make(name: str, seed: int, size: str, workdir: Path) -> Workload:
    if name == "paper_report":
        return PaperReport(seed, size, workdir)
    if name == "campaign_paper_quick":
        return CampaignRun(seed, size, workdir)
    if name in CLUSTER_SHAPES:
        return ClusterRun(name, seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
