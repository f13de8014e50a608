"""CampaignExecutor: failures (crash, dead worker, timeout) + caching."""

import json
import threading
import time
from collections import Counter

import pytest

from repro.campaign import (
    CampaignExecutor,
    CampaignSpec,
    CampaignStore,
    ResultCache,
    RunSpec,
    STATUS_FAILED,
    STATUS_OK,
    canonical_json,
    execute_runspec,
)

STUBS = "tests.campaign.stubs"


def stub(fn, *, seed=0, **params):
    return RunSpec(
        experiment=f"stub-{fn}", params=params, seed=seed, runner=f"{STUBS}:{fn}"
    )


def make_executor(tmp_path, **kw):
    kw.setdefault("cache", ResultCache(tmp_path / "cache", source_token="t"))
    kw.setdefault("store", CampaignStore(tmp_path / "camp"))
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
    ex = make_executor(tmp_path, jobs=2)
    camp = CampaignSpec("t", [stub("crash_run"), stub("ok_run")])
    result = ex.run(camp)
    assert len(result.ok) == 1 and len(result.failed) == 1
    failed = result.failed[0]
    assert failed.status == STATUS_FAILED
    assert "injected crash" in failed.error
    assert "RuntimeError" in failed.error  # full traceback captured
    # recorded once: the run is deterministic, so it is not re-run
    assert failed.attempt == 1
    assert [r.run_id for r in ex.store.records()].count(failed.run_id) == 1


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


def test_dead_worker_fails_every_unfinished_run(tmp_path):
    # One worker runs the cells in order: the two before the death
    # finish OK, the dying run and the one queued after it fail.
    ex = make_executor(tmp_path, jobs=1)
    runs = [
        stub("ok_run", seed=0),
        stub("ok_run", seed=1),
        stub("die_run", seed=2),
        stub("ok_run", seed=3),
    ]
    result = ex.run(CampaignSpec("t", runs))
    assert [result.records[s.run_id].status for s in runs] == [
        STATUS_OK, STATUS_OK, STATUS_FAILED, STATUS_FAILED,
    ]
    for rec in result.failed:
        assert rec.error.startswith("worker died: ")
    assert len(ex.store.final_records()) == 4
    assert ex.store.load_manifest()["totals"]["failed"] == 2


def test_timeout_marks_failed_and_campaign_survives(tmp_path):
    ex = make_executor(tmp_path, jobs=2, timeout=2.0)
    camp = CampaignSpec("t", [stub("hang_run"), stub("ok_run")])
    t0 = time.monotonic()
    result = ex.run(camp)
    assert time.monotonic() - t0 < 10.0
    assert len(result.ok) == 1
    hung = result.failed[0]
    assert hung.error == "campaign timeout: exceeded 2s"
    assert hung.experiment == "stub-hang_run"


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
    # a FAILED run is run again by the next campaign, not cached
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


def test_concurrent_campaigns_share_one_executor(tmp_path):
    # Two campaigns run through ONE executor at once; each run() owns
    # its pool, so every run of both must start and finish OK exactly
    # once.  Each thread counts only its own campaign's run ids.
    events = Counter()

    def on_event(kind, run_id=None, **info):
        events[kind, run_id] += 1

    ex = make_executor(tmp_path, jobs=2, store=None, on_event=on_event)
    camp_a = CampaignSpec("a", [stub("ok_run", seed=s) for s in (1, 2, 3)])
    camp_b = CampaignSpec("b", [stub("ok_run", seed=s) for s in (10, 11, 12)])
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
        t.join(timeout=60)
        assert not t.is_alive()

    run_ids = [spec.run_id for camp in (camp_a, camp_b) for spec in camp.runs]
    assert events == Counter(
        (kind, run_id) for kind in ("start", "ok") for run_id in run_ids
    )
    for name, camp in (("a", camp_a), ("b", camp_b)):
        res = results[name]
        assert len(res.ok) == 3 and not res.failed
        for spec in camp.runs:
            assert json.loads(res.payloads[spec.run_id])["seed"] == spec.seed
