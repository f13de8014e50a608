"""CampaignExecutor: fault tolerance (crash, hang, retry) + caching."""

import json

import pytest

from repro.campaign import (
    CampaignExecutor,
    CampaignSpec,
    CampaignStore,
    ResultCache,
    RunSpec,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRYING,
    canonical_json,
    execute_runspec,
)

STUBS = "tests.campaign.stubs"


def stub(fn, *, seed=0, timeout=None, **params):
    return RunSpec(
        experiment=f"stub-{fn}", params=params, seed=seed,
        runner=f"{STUBS}:{fn}", timeout=timeout,
    )


def make_executor(tmp_path, **kw):
    kw.setdefault("cache", ResultCache(tmp_path / "cache", source_token="t"))
    kw.setdefault("store", CampaignStore(tmp_path / "camp"))
    kw.setdefault("backoff", 0.0)
    kw.setdefault("verify", 0)
    return CampaignExecutor(**kw)


def test_ok_runs_and_artifacts(tmp_path):
    ex = make_executor(tmp_path, jobs=2, verify=1)
    camp = CampaignSpec("t", [stub("ok_run", seed=s) for s in (0, 1, 2)])
    result = ex.run(camp)
    assert len(result.ok) == 3 and not result.failed
    assert result.verified == 1
    # artifact trail: manifest + runs.jsonl + per-run payloads
    store = ex.store
    manifest = store.load_manifest()
    assert manifest["status"] == "complete"
    assert manifest["totals"]["ok"] == 3
    finals = store.final_records()
    assert len(finals) == 3
    for spec in camp.runs:
        payload = json.loads(store.read_payload(spec.run_id))
        assert payload["seed"] == spec.seed


def test_crash_is_recorded_not_fatal(tmp_path):
    ex = make_executor(tmp_path, jobs=2, retries=0)
    camp = CampaignSpec("t", [stub("crash_run"), stub("ok_run")])
    result = ex.run(camp)
    assert len(result.ok) == 1 and len(result.failed) == 1
    failed = result.failed[0]
    assert failed.status == STATUS_FAILED
    assert "injected crash" in failed.error
    assert "RuntimeError" in failed.error  # full traceback captured


def test_execute_runspec_returns_status_tuples_and_never_raises():
    # The pool workers call this in forked processes; call it in-process.
    ok = stub("ok_run", seed=3, value=2.0)
    status, data, wall = execute_runspec(ok.to_payload())
    assert status == "ok"
    assert data == canonical_json({"seed": 3, "value": 7.0, "tag": "x"})
    assert wall >= 0.0

    unknown = RunSpec(experiment="no-such-exp")
    status, data, wall = execute_runspec(unknown.to_payload())
    assert status == "error"
    assert "KeyError" in data and "no-such-exp" in data
    assert wall >= 0.0


def test_retry_then_succeed(tmp_path):
    marker = tmp_path / "markers"
    marker.mkdir()
    ex = make_executor(tmp_path, jobs=1, retries=2)
    camp = CampaignSpec(
        "t", [stub("flaky_run", marker_dir=str(marker), fails=1)]
    )
    result = ex.run(camp)
    rec = result.ok[0]
    assert rec.status == STATUS_OK
    assert rec.attempt == 2  # failed once, succeeded on the retry
    payload = json.loads(result.payloads[rec.run_id])
    assert payload["succeeded_on_attempt"] == 2
    # runs.jsonl keeps the RETRYING attempt record too
    attempts = [r.status for r in ex.store.records()]
    assert attempts == [STATUS_RETRYING, STATUS_OK]


def test_retries_exhausted_marks_failed(tmp_path):
    ex = make_executor(tmp_path, jobs=1, retries=1)
    camp = CampaignSpec("t", [stub("crash_run")])
    result = ex.run(camp)
    rec = result.failed[0]
    assert rec.attempt == 2  # initial + 1 retry
    assert [r.status for r in ex.store.records()] == [
        STATUS_RETRYING,
        STATUS_FAILED,
    ]


def test_timeout_marks_failed_and_campaign_survives(tmp_path):
    ex = make_executor(tmp_path, jobs=2, retries=0, timeout=0.5)
    camp = CampaignSpec(
        "t", [stub("hang_run"), stub("ok_run", timeout=30.0)]
    )
    result = ex.run(camp)
    assert len(result.ok) == 1
    hung = result.failed[0]
    assert "timeout" in hung.error
    assert hung.experiment == "stub-hang_run"


def test_all_slots_hung_pool_is_rebuilt(tmp_path):
    # Two hangs saturate the 2-worker pool; the executor must write
    # both slots off, rebuild, and still finish the remaining run.
    ex = make_executor(tmp_path, jobs=2, retries=0, timeout=0.4)
    camp = CampaignSpec(
        "t",
        [
            stub("hang_run", seed=1),
            stub("hang_run", seed=2),
            stub("ok_run", seed=3, timeout=30.0),
        ],
    )
    result = ex.run(camp)
    assert len(result.failed) == 2
    assert len(result.ok) == 1
    assert json.loads(result.payloads[camp.runs[2].run_id])["seed"] == 3


def test_second_campaign_run_is_all_cache_hits(tmp_path):
    camp = CampaignSpec("t", [stub("ok_run", seed=s) for s in (0, 1)])
    cold = make_executor(tmp_path, jobs=2).run(camp)
    assert cold.cache_hit_ratio == 0.0
    warm = make_executor(tmp_path, jobs=2).run(camp)
    assert warm.cache_hit_ratio == 1.0
    assert len(warm.ok) == 2
    # byte-identical payloads across the cache boundary
    for run_id, payload in cold.payloads.items():
        assert warm.payloads[run_id] == payload


def test_no_cache_recomputes(tmp_path):
    camp = CampaignSpec("t", [stub("ok_run")])
    make_executor(tmp_path, jobs=1).run(camp)
    ex = make_executor(
        tmp_path, jobs=1,
        cache=ResultCache(tmp_path / "cache", enabled=False, source_token="t"),
    )
    result = ex.run(camp)
    assert result.cache_hits == 0


def test_failed_run_exit_is_not_cached(tmp_path):
    camp = CampaignSpec("t", [stub("crash_run")])
    make_executor(tmp_path, jobs=1).run(camp)
    again = make_executor(tmp_path, jobs=1).run(camp)
    # a FAILED run must be retried on the next campaign, not cached
    assert again.cache_hits == 0
    assert len(again.failed) == 1


@pytest.mark.parametrize("jobs", [1, 3])
def test_event_stream_counts(tmp_path, jobs):
    events = []
    ex = make_executor(
        tmp_path, jobs=jobs,
        on_event=lambda kind, **info: events.append(kind),
    )
    camp = CampaignSpec("t", [stub("ok_run", seed=s) for s in range(4)])
    ex.run(camp)
    assert events.count("start") == 4
    assert events.count("ok") == 4


# ----------------------------------------------------------------------
# Pool-rebuild idempotency (PoolManager): the rebuild-after-timeout path
# must be safe when several drains share one executor concurrently.
# ----------------------------------------------------------------------

def test_pool_rebuild_is_idempotent_per_generation():
    import os

    from repro.campaign.executor import PoolManager

    pm = PoolManager(jobs=2)
    try:
        fut, gen = pm.submit(os.getpid)
        assert fut.result(timeout=30) > 0
        # First observer tears the pool down; the second (same token)
        # must be a no-op instead of killing the replacement.
        assert pm.rebuild(gen) is True
        assert pm.rebuild(gen) is False
        assert pm.rebuilds == 1
        # Write-offs against the retired generation are discarded.
        assert pm.write_off(gen) is False
        fut2, gen2 = pm.submit(os.getpid)
        assert gen2 == gen + 1
        assert fut2.result(timeout=30) > 0
        assert pm.rebuild(gen) is False  # still stale after replacement
        assert pm.rebuilds == 1
    finally:
        pm.shutdown()


def test_pool_rebuild_concurrent_observers_single_teardown():
    import os
    import threading

    from repro.campaign.executor import PoolManager

    pm = PoolManager(jobs=1)
    try:
        fut, gen = pm.submit(os.getpid)
        fut.result(timeout=30)
        outcomes = []
        barrier = threading.Barrier(6)

        def observer():
            barrier.wait()
            outcomes.append(pm.rebuild(gen))

        threads = [threading.Thread(target=observer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count(True) == 1, "exactly one teardown"
        assert pm.rebuilds == 1
    finally:
        pm.shutdown()


def test_write_off_threshold_scoped_to_current_pool():
    import os

    from repro.campaign.executor import PoolManager

    pm = PoolManager(jobs=2)
    try:
        _, gen = pm.submit(os.getpid)
        assert pm.write_off(gen) is False  # 1 of 2 slots
        assert pm.rebuild(gen) is True
        _, gen2 = pm.submit(os.getpid)
        # The fresh pool starts with a clean write-off ledger: one lost
        # slot must not tip it over the (stale counter + 1) threshold.
        assert pm.write_off(gen2) is False
        assert pm.write_off(gen2) is True
    finally:
        pm.shutdown()


def test_concurrent_campaigns_share_one_executor(tmp_path):
    # Two campaigns drain through ONE executor at once; campaign A's
    # hang forces a timeout write-off + pool rebuild mid-flight while
    # campaign B keeps submitting.  Before PoolManager both drains
    # could tear down/rebuild the same pool (duplicate executions of
    # resubmitted runs), and a run cancelled by the *other* drain's
    # teardown was silently dropped; now the rebuild is generation-
    # guarded, external cancellations resubmit attempt-free, and both
    # campaigns must finish with every non-hanging run OK exactly once.
    import threading

    ex = make_executor(
        tmp_path, jobs=2, retries=3, timeout=0.5, store=None,
    )
    camp_a = CampaignSpec(
        "a",
        [stub("hang_run", seed=1)]
        + [stub("ok_run", seed=s, timeout=30.0) for s in (2, 3)],
    )
    camp_b = CampaignSpec(
        "b", [stub("ok_run", seed=s, timeout=30.0) for s in (10, 11, 12)]
    )
    results = {}

    def drain(name, camp):
        results[name] = ex.run(camp)

    threads = [
        threading.Thread(target=drain, args=("a", camp_a)),
        threading.Thread(target=drain, args=("b", camp_b)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    a, b = results["a"], results["b"]
    assert len(a.ok) == 2 and len(a.failed) == 1  # only the hang fails
    assert "timeout" in a.failed[0].error
    assert len(b.ok) == 3 and not b.failed
    # every OK run produced exactly one authoritative payload
    for res, camp in ((a, camp_a), (b, camp_b)):
        for spec in camp.runs:
            if spec.experiment == "stub-ok_run":
                assert json.loads(res.payloads[spec.run_id])["seed"] == spec.seed
