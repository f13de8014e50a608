"""Parallel campaign execution: one process pool, one pass.

A :class:`CampaignExecutor` runs a campaign's cells over a
``ProcessPoolExecutor`` that lives for one :meth:`~CampaignExecutor.run`:

* **one attempt per run** — every experiment is bit-reproducible from
  its spec, so a failed run would fail the same way again.  A worker
  exception comes back as a formatted traceback and the run is
  recorded ``FAILED`` once; it never kills the campaign;
* **loud pool failures** — a dead worker breaks the pool, and an
  overrun campaign-wide ``timeout`` leaves runs in flight.  Either way
  the pool's workers are terminated and every unfinished run is
  recorded ``FAILED`` naming the cause (``worker died: …`` or
  ``campaign timeout: exceeded Ns``).  A simulation stuck in a
  zero-delay loop fails on its own, at the engine's livelock limit;
* **result caching** — each run is looked up in the content-addressed
  :class:`~repro.campaign.cache.ResultCache` first, and OK results are
  written back;
* **parallel-equals-serial verification** — because every experiment
  is bit-reproducible from its spec, the executor re-runs a sample of
  completed runs serially in-process and asserts the canonical payload
  bytes match, making the campaign layer a correctness harness as well
  as a throughput one.

Each :meth:`~CampaignExecutor.run` owns its pool, so concurrent calls
on one executor share no pool state.  Workers communicate outcomes as
plain ``("ok"|"error", data, wall)`` tuples, so nothing
exception-shaped ever has to survive pickling.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign.cache import ResultCache
from repro.campaign.spec import CampaignSpec, RunSpec, canonical_json, invoke, summarize_result
from repro.campaign.store import STATUS_FAILED, STATUS_OK, CampaignStore, RunRecord

import repro


class CampaignConsistencyError(AssertionError):
    """Parallel and serial executions of a run disagreed byte-for-byte."""


def _mp_context():
    """Fork where available (cheap workers), default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _discard(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Shut a pool down without waiting, terminating its workers.

    Workers may be hung or already dead; after the pass nothing they
    could still send is read.
    """
    procs = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()


def execute_runspec(payload: Dict[str, Any]) -> Tuple[str, str, float]:
    """Worker entry point: run one spec, return ``(status, data, wall)``.

    ``status`` is ``"ok"`` (``data`` = canonical payload JSON) or
    ``"error"`` (``data`` = formatted traceback).  Module-level so the
    process pool can pickle it.
    """
    spec = RunSpec.from_payload(payload)
    t0 = time.perf_counter()
    try:
        result, _dropped = invoke(spec)
        data = canonical_json(summarize_result(result))
        return ("ok", data, time.perf_counter() - t0)
    except BaseException:  # noqa: BLE001 - the whole point is capture
        return ("error", traceback.format_exc(), time.perf_counter() - t0)


@dataclass
class CampaignResult:
    """What :meth:`CampaignExecutor.run` hands back."""

    campaign: str
    records: Dict[str, RunRecord] = field(default_factory=dict)
    payloads: Dict[str, bytes] = field(default_factory=dict)
    wall_time: float = 0.0
    verified: int = 0

    @property
    def ok(self) -> List[RunRecord]:
        """Records that finished ``OK`` (including cache hits)."""
        return [r for r in self.records.values() if r.status == STATUS_OK]

    @property
    def failed(self) -> List[RunRecord]:
        """Records whose final status is ``FAILED``."""
        return [r for r in self.records.values() if r.status == STATUS_FAILED]

    @property
    def cache_hits(self) -> int:
        """Runs answered from the result cache."""
        return sum(1 for r in self.records.values() if r.cache_hit)

    @property
    def cache_hit_ratio(self) -> float:
        """Cache hits / total runs."""
        return self.cache_hits / len(self.records) if self.records else 0.0

    def summary(self) -> Dict[str, Any]:
        """JSON-able totals for the manifest / status rendering."""
        return {
            "runs": len(self.records),
            "ok": len(self.ok),
            "failed": len(self.failed),
            "cache_hits": self.cache_hits,
            "cache_hit_ratio": round(self.cache_hit_ratio, 4),
            "wall_time": round(self.wall_time, 3),
            "verified": self.verified,
        }


class CampaignExecutor:
    """Dispatch a :class:`CampaignSpec` across worker processes.

    ``timeout`` bounds the whole pass over the uncached runs, in
    seconds (``None`` = no bound).
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        store: Optional[CampaignStore] = None,
        on_event: Optional[Callable[..., None]] = None,
        verify: int = 1,
    ) -> None:
        if not jobs >= 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        if not verify >= 0:  # also rejects NaN
            raise ValueError(f"verify must be non-negative, got {verify}")
        if timeout is not None and not timeout > 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.jobs = jobs
        self.timeout = timeout
        self.cache = cache
        self.store = store
        self.on_event = on_event or (lambda kind, **info: None)
        self.verify = verify

    # -- record plumbing ----------------------------------------------

    def _record(
        self,
        result: CampaignResult,
        spec: RunSpec,
        status: str,
        wall: float,
        cache_key: str,
        *,
        cache_hit: bool = False,
        error: Optional[str] = None,
        payload: Optional[bytes] = None,
    ) -> None:
        rec = RunRecord(
            run_id=spec.run_id,
            experiment=spec.experiment,
            status=status,
            attempt=0 if cache_hit else 1,
            wall_time=wall,
            cache_hit=cache_hit,
            cache_key=cache_key,
            seed=spec.seed,
            params=dict(spec.params),
            error=error,
        )
        if payload is not None:
            result.payloads[spec.run_id] = payload
            if self.store is not None:
                rec.payload_path = self.store.write_payload(spec.run_id, payload)
        result.records[spec.run_id] = rec
        if self.store is not None:
            self.store.append(rec)

    def _fail(
        self, result: CampaignResult, spec: RunSpec, key: str, error: str, wall: float
    ) -> None:
        self._record(result, spec, STATUS_FAILED, wall, key, error=error)
        self.on_event("failed", spec=spec, run_id=spec.run_id, error=error)

    # -- the main pass -------------------------------------------------

    def run(self, campaign: CampaignSpec) -> CampaignResult:
        """Execute every run of ``campaign``; never raises for a run
        failure (only for campaign-level errors such as a verification
        mismatch)."""
        t_start = time.perf_counter()
        result = CampaignResult(campaign=campaign.name)
        if self.store is not None:
            manifest = {
                "campaign": campaign.to_payload(),
                "version": repro.__version__,
                "source_digest": self.cache.source_token if self.cache else None,
                "jobs": self.jobs,
                "timeout": self.timeout,
                "cache_enabled": bool(self.cache and self.cache.enabled),
                "started_at": time.time(),
                "status": "running",
            }
            self.store.write_manifest(manifest)

        keys: Dict[str, str] = {}
        pending: List[RunSpec] = []
        for spec in campaign.runs:
            key = self.cache.key_for(spec) if self.cache else ""
            keys[spec.run_id] = key
            data = self.cache.get(key) if self.cache else None
            if data is not None:
                self._record(
                    result, spec, STATUS_OK, 0.0, key, cache_hit=True, payload=data
                )
                self.on_event("cached", spec=spec, run_id=spec.run_id)
            else:
                pending.append(spec)

        if pending:
            self._drain(result, pending, keys)
        result.wall_time = time.perf_counter() - t_start

        if self.verify:
            result.verified = self._verify_sample(result, campaign.runs)

        if self.store is not None:
            manifest = self.store.load_manifest()
            manifest.update(
                {
                    "status": "complete",
                    "finished_at": time.time(),
                    "totals": result.summary(),
                }
            )
            self.store.write_manifest(manifest)
        return result

    def _drain(
        self, result: CampaignResult, pending: List[RunSpec], keys: Dict[str, str]
    ) -> None:
        """Run ``pending`` on one fresh pool and record every outcome.

        A dead worker or the campaign deadline ends the pass: the pool
        is discarded and each run still without a record (the one whose
        future raised included) is recorded ``FAILED`` with the cause.
        """
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=_mp_context()
        )
        t0 = time.monotonic()
        futures: Dict[concurrent.futures.Future, RunSpec] = {}
        cause = ""
        try:
            for spec in pending:
                futures[pool.submit(execute_runspec, spec.to_payload())] = spec
                self.on_event("start", spec=spec, run_id=spec.run_id)
            for fut in concurrent.futures.as_completed(futures, timeout=self.timeout):
                status, data, wall = fut.result()
                spec = futures.pop(fut)
                key = keys[spec.run_id]
                if status != "ok":
                    self._fail(result, spec, key, data, wall)
                    continue
                payload = data.encode("utf-8")
                if self.cache:
                    self.cache.put(key, payload)
                self._record(result, spec, STATUS_OK, wall, key, payload=payload)
                self.on_event("ok", spec=spec, run_id=spec.run_id, wall=wall)
        except BrokenProcessPool as exc:
            cause = f"worker died: {exc!r}"
        except concurrent.futures.TimeoutError:
            cause = f"campaign timeout: exceeded {self.timeout:g}s"
        finally:
            _discard(pool)
        wall = time.monotonic() - t0
        for spec in pending:
            if spec.run_id not in result.records:
                self._fail(result, spec, keys[spec.run_id], cause, wall)

    # -- parallel == serial -------------------------------------------

    def _verify_sample(self, result: CampaignResult, runs: List[RunSpec]) -> int:
        """Re-run the cheapest executed runs serially; assert equality.

        Raises :class:`CampaignConsistencyError` on the first byte
        difference between the worker's payload and the in-process
        serial recomputation.
        """
        by_id = {r.run_id for r in result.ok if not r.cache_hit}
        candidates = sorted(
            (result.records[rid] for rid in by_id),
            key=lambda r: r.wall_time,
        )[: self.verify]
        specs = {s.run_id: s for s in runs}
        verified = 0
        for rec in candidates:
            spec = specs.get(rec.run_id)
            if spec is None:
                continue
            raw, _dropped = invoke(spec)
            serial = canonical_json(summarize_result(raw)).encode("utf-8")
            parallel = result.payloads.get(rec.run_id)
            if parallel != serial:
                raise CampaignConsistencyError(
                    f"run {rec.run_id}: parallel result differs from serial "
                    f"recomputation ({len(parallel or b'')} vs {len(serial)} "
                    f"bytes) — the experiment is not deterministic"
                )
            verified += 1
            self.on_event("verified", run_id=rec.run_id)
        return verified
