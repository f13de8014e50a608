"""Parallel, fault-tolerant campaign execution.

A :class:`CampaignExecutor` dispatches a campaign's runs over a
``ProcessPoolExecutor`` with:

* **per-run timeouts** — an overdue run is marked ``FAILED`` (its
  worker slot is written off; when every slot is lost the pool is
  rebuilt and in-flight runs are resubmitted without consuming an
  attempt);
* **bounded retries with exponential backoff** — a crashed or timed
  out run is retried up to ``retries`` times before its ``FAILED``
  record becomes final;
* **graceful degradation** — a worker exception is transported back as
  a formatted traceback in the run record; it never kills the
  campaign, and a broken pool (hard worker death) is rebuilt on the
  spot;
* **result caching** — each run is looked up in the content-addressed
  :class:`~repro.campaign.cache.ResultCache` first, and OK results are
  written back;
* **parallel-equals-serial verification** — because every experiment
  is bit-reproducible from its spec, the executor re-runs a sample of
  completed runs serially in-process and asserts the canonical payload
  bytes match, making the campaign layer a correctness harness as well
  as a throughput one.

Workers communicate outcomes as plain ``("ok"|"error", data, wall)``
tuples, so nothing exception-shaped ever has to survive pickling.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign.cache import ResultCache
from repro.campaign.spec import CampaignSpec, RunSpec, canonical_json, invoke, summarize_result
from repro.campaign.store import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRYING,
    CampaignStore,
    RunRecord,
)

import repro


class CampaignConsistencyError(AssertionError):
    """Parallel and serial executions of a run disagreed byte-for-byte."""


def _mp_context():
    """Fork where available (cheap workers), default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class PoolManager:
    """Thread-safe, generation-guarded worker-pool lifecycle.

    Concurrent :meth:`CampaignExecutor.run` callers share one executor
    and therefore one pool.  Two drains can observe the same
    hung/broken pool; unguarded, both would tear it down and rebuild —
    the second teardown killing a *fresh* pool that already carried the
    first drain's resubmitted in-flight runs, so those runs would run
    twice (or their results would be lost) and the write-off counter
    would be reset against the wrong pool.

    The guard is an idempotency token: every pool carries a
    **generation**.  Callers capture the generation together with the
    pool; :meth:`rebuild` replaces the pool only when the caller's
    generation is still current and is a no-op otherwise (a concurrent
    caller already rebuilt).  Slot write-offs are generation-scoped the
    same way, so a timeout observed against a pool that no longer
    exists cannot push a healthy replacement pool over the rebuild
    threshold.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, jobs)
        self._lock = threading.Lock()
        self._pool: Optional[concurrent.futures.Executor] = None
        self._generation = 0
        self._lost_slots = 0
        #: Pools rebuilt over this manager's lifetime (observability +
        #: regression tests).
        self.rebuilds = 0

    def _new_pool(self) -> concurrent.futures.Executor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=_mp_context()
        )

    @property
    def generation(self) -> int:
        """The current pool generation (0 before the first pool)."""
        with self._lock:
            return self._generation

    def submit(
        self, fn: Callable, *args: Any
    ) -> Tuple[concurrent.futures.Future, int]:
        """Submit ``fn(*args)``; returns ``(future, generation)``.

        Creates the pool lazily and retries if the pool it grabbed was
        concurrently shut down (the submit/rebuild race is resolved
        here instead of leaking ``RuntimeError`` to the caller).
        """
        while True:
            with self._lock:
                if self._pool is None:
                    self._pool = self._new_pool()
                    self._generation += 1
                    self._lost_slots = 0
                pool, generation = self._pool, self._generation
            try:
                return pool.submit(fn, *args), generation
            except RuntimeError:
                # The pool was shut down between acquire and submit by a
                # concurrent rebuild; loop for the replacement.
                with self._lock:
                    if self._pool is pool:
                        self._pool = None

    def write_off(self, generation: int) -> bool:
        """Write off one worker slot of ``generation``.

        Returns ``True`` when every slot of the *current* pool has been
        written off (the caller should rebuild).  A stale generation —
        the pool was already replaced — is a no-op returning ``False``.
        """
        with self._lock:
            if generation != self._generation or self._pool is None:
                return False
            self._lost_slots += 1
            return self._lost_slots >= self.jobs

    def rebuild(self, generation: int) -> bool:
        """Replace the pool of ``generation``, idempotently.

        Only the first caller observing a given generation performs the
        teardown; later callers (concurrent drains that observed the
        same breakage) get ``False`` and simply resubmit onto the
        replacement via :meth:`submit`.
        """
        with self._lock:
            if generation != self._generation:
                return False
            # A second caller with the current generation finds the pool
            # already detached (None) and backs off; the generation only
            # advances when the replacement is created in submit().
            pool, self._pool = self._pool, None
            if pool is None:
                return False
            self._lost_slots = 0
            self.rebuilds += 1
        self._discard(pool)
        return True

    def shutdown(self) -> None:
        """Tear the current pool down (end of campaign / service)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            self._discard(pool)

    @staticmethod
    def _discard(pool: concurrent.futures.Executor) -> None:
        """Tear down a pool that may contain hung or dead workers."""
        try:
            procs = list(getattr(pool, "_processes", {}).values())
        except Exception:  # pragma: no cover - private API drift
            procs = []
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


#: (spec, attempt, not-before-monotonic-time) queue entry.
_Pending = Tuple[RunSpec, int, float]


class CampaignExecutor:
    """Dispatch a :class:`CampaignSpec` across worker processes."""

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.5,
        cache: Optional[ResultCache] = None,
        store: Optional[CampaignStore] = None,
        on_event: Optional[Callable[..., None]] = None,
        verify: int = 1,
    ) -> None:
        if not jobs >= 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        for name, value in (
            ("retries", retries), ("verify", verify), ("backoff", backoff)
        ):
            if not value >= 0:  # also rejects NaN
                raise ValueError(f"{name} must be non-negative, got {value}")
        if timeout is not None and not timeout > 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.cache = cache
        self.store = store
        self.on_event = on_event or (lambda kind, **info: None)
        self.verify = verify
        #: Shared worker-pool lifecycle; safe to use from several
        #: concurrent drains (see :class:`PoolManager`).
        self.pools = PoolManager(self.jobs)

    # -- record plumbing ----------------------------------------------

    def _record(
        self,
        result: CampaignResult,
        spec: RunSpec,
        *,
        status: str,
        attempt: int,
        wall: float,
        cache_hit: bool = False,
        cache_key: str = "",
        error: Optional[str] = None,
        payload: Optional[bytes] = None,
    ) -> RunRecord:
        rec = RunRecord(
            run_id=spec.run_id,
            experiment=spec.experiment,
            status=status,
            attempt=attempt,
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
        if status != STATUS_RETRYING:
            result.records[spec.run_id] = rec
        if self.store is not None:
            self.store.append(rec)
        return rec

    # -- the main loop -------------------------------------------------

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
                "retries": self.retries,
                "cache_enabled": bool(self.cache and self.cache.enabled),
                "started_at": time.time(),
                "status": "running",
            }
            self.store.write_manifest(manifest)

        keys: Dict[str, str] = {}
        pending: deque = deque()
        for spec in campaign.runs:
            key = self.cache.key_for(spec) if self.cache else ""
            keys[spec.run_id] = key
            data = self.cache.get(key) if self.cache else None
            if data is not None:
                self._record(
                    result,
                    spec,
                    status=STATUS_OK,
                    attempt=0,
                    wall=0.0,
                    cache_hit=True,
                    cache_key=key,
                    payload=data,
                )
                self.on_event("cached", spec=spec, run_id=spec.run_id)
            else:
                pending.append((spec, 1, 0.0))

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
        self,
        result: CampaignResult,
        pending: "deque[_Pending]",
        keys: Dict[str, str],
    ) -> None:
        """Run the submit/collect/timeout loop until nothing is left."""
        #: future -> (spec, attempt, deadline, t0, pool generation).
        active: Dict[
            concurrent.futures.Future,
            Tuple[RunSpec, int, Optional[float], float, int],
        ] = {}
        try:
            while pending or active:
                now = time.monotonic()
                # Submit every ready entry while there is capacity.
                ready, later = [], deque()
                while pending:
                    spec, attempt, not_before = pending.popleft()
                    (ready if not_before <= now else later).append(
                        (spec, attempt, not_before)
                    )
                pending = later
                for spec, attempt, _ in ready:
                    if len(active) >= self.jobs:
                        pending.append((spec, attempt, now))
                        continue
                    per_timeout = spec.timeout if spec.timeout is not None else self.timeout
                    deadline = now + per_timeout if per_timeout else None
                    fut, gen = self.pools.submit(execute_runspec, spec.to_payload())
                    active[fut] = (spec, attempt, deadline, time.monotonic(), gen)
                    self.on_event("start", spec=spec, run_id=spec.run_id, attempt=attempt)

                if not active:
                    # Everything is backing off; sleep until the earliest.
                    wake = min(nb for _, _, nb in pending)
                    time.sleep(max(0.0, wake - time.monotonic()))
                    continue

                wait_for = [
                    d - time.monotonic()
                    for _, _, d, _, _ in active.values()
                    if d is not None
                ]
                if pending and len(active) < self.jobs:
                    # A backoff entry may become ready before any
                    # completion; with no capacity waiting on it is
                    # pointless (and would busy-spin).
                    wait_for.append(
                        min(nb for _, _, nb in pending) - time.monotonic()
                    )
                timeout = max(0.0, min(wait_for)) if wait_for else None
                done, _ = concurrent.futures.wait(
                    active,
                    timeout=timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )

                rebuild_gen: Optional[int] = None
                for fut in done:
                    spec, attempt, _deadline, t0, gen = active.pop(fut)
                    elapsed = time.monotonic() - t0
                    try:
                        status, data, wall = fut.result()
                    except concurrent.futures.CancelledError:
                        # This drain's own cancellations (timeout
                        # write-off, rebuild resubmission) pop the
                        # future from ``active`` first and never reach
                        # here — so this cancellation is external: a
                        # concurrent drain retired the shared pool while
                        # the run sat queued.  Not a run failure;
                        # resubmit without burning an attempt.
                        pending.append((spec, attempt, 0.0))
                        continue
                    except Exception as exc:  # pool breakage, not run code
                        rebuild_gen = gen if rebuild_gen is None else rebuild_gen
                        self._handle_failure(
                            result,
                            pending,
                            spec,
                            attempt,
                            keys,
                            error=f"worker died: {exc!r}",
                            wall=elapsed,
                        )
                        continue
                    if status == "ok":
                        payload = data.encode("utf-8")
                        key = keys.get(spec.run_id, "")
                        if self.cache:
                            self.cache.put(key, payload)
                        self._record(
                            result,
                            spec,
                            status=STATUS_OK,
                            attempt=attempt,
                            wall=wall,
                            cache_key=key,
                            payload=payload,
                        )
                        self.on_event(
                            "ok", spec=spec, run_id=spec.run_id, wall=wall,
                            attempt=attempt,
                        )
                    else:
                        self._handle_failure(
                            result, pending, spec, attempt, keys,
                            error=data, wall=wall,
                        )

                # Timed-out runs: the worker may be stuck; write the
                # slot off and rebuild the pool once all slots are gone.
                now = time.monotonic()
                for fut in [
                    f
                    for f, (_, _, d, _, _) in active.items()
                    if d is not None and now >= d
                ]:
                    spec, attempt, _deadline, t0, gen = active.pop(fut)
                    if not fut.cancel() and self.pools.write_off(gen):
                        # Every slot of this pool is written off.
                        rebuild_gen = gen if rebuild_gen is None else rebuild_gen
                    self._handle_failure(
                        result,
                        pending,
                        spec,
                        attempt,
                        keys,
                        error=(
                            f"timeout: exceeded "
                            f"{spec.timeout if spec.timeout is not None else self.timeout}s"
                        ),
                        wall=now - t0,
                        timed_out=True,
                    )

                if rebuild_gen is not None:
                    # Resubmit whatever was in flight (no attempt burned)
                    # and retire the broken pool.  rebuild() is
                    # generation-guarded: if a concurrent drain already
                    # replaced it, this is a no-op and the resubmissions
                    # simply land on the fresh pool.
                    for fut, (spec, attempt, _d, _t0, _g) in active.items():
                        fut.cancel()
                        pending.append((spec, attempt, 0.0))
                    active.clear()
                    self.pools.rebuild(rebuild_gen)
        finally:
            self.pools.shutdown()

    def _handle_failure(
        self,
        result: CampaignResult,
        pending: "deque[_Pending]",
        spec: RunSpec,
        attempt: int,
        keys: Dict[str, str],
        *,
        error: str,
        wall: float,
        timed_out: bool = False,
    ) -> None:
        """Record a failed attempt; requeue with backoff or finalize."""
        if attempt <= self.retries:
            self._record(
                result,
                spec,
                status=STATUS_RETRYING,
                attempt=attempt,
                wall=wall,
                cache_key=keys.get(spec.run_id, ""),
                error=error,
            )
            delay = self.backoff * (2 ** (attempt - 1))
            pending.append((spec, attempt + 1, time.monotonic() + delay))
            self.on_event(
                "retry", spec=spec, run_id=spec.run_id, attempt=attempt,
                delay=delay, timed_out=timed_out,
            )
        else:
            self._record(
                result,
                spec,
                status=STATUS_FAILED,
                attempt=attempt,
                wall=wall,
                cache_key=keys.get(spec.run_id, ""),
                error=error,
            )
            self.on_event(
                "failed", spec=spec, run_id=spec.run_id, attempt=attempt,
                error=error, timed_out=timed_out,
            )

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
