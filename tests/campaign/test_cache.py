"""ResultCache: content addressing, hit/miss accounting, invalidation."""

from repro.campaign.cache import ResultCache, source_digest
from repro.campaign.spec import RunSpec


def make_cache(tmp_path, token="tok-a", enabled=True):
    return ResultCache(tmp_path / "cache", enabled=enabled, source_token=token)


def test_miss_then_hit_round_trip(tmp_path):
    cache = make_cache(tmp_path)
    spec = RunSpec("fig1")
    key = cache.key_for(spec)
    assert cache.get(key) is None
    cache.put(key, b'{"x":1}')
    assert cache.get(key) == b'{"x":1}'
    assert cache.hits == 1 and cache.misses == 1


def test_key_changes_with_spec(tmp_path):
    cache = make_cache(tmp_path)
    base = cache.key_for(RunSpec("table3", params={"iterations": 4}))
    assert cache.key_for(RunSpec("table3", params={"iterations": 5})) != base
    assert cache.key_for(RunSpec("table3", params={"iterations": 4}, seed=1)) != base
    assert cache.key_for(RunSpec("table4", params={"iterations": 4})) != base
    # and is stable for an identical spec
    assert cache.key_for(RunSpec("table3", params={"iterations": 4})) == base


def test_key_changes_with_source_digest(tmp_path):
    spec = RunSpec("fig1")
    a = make_cache(tmp_path, token="digest-one").key_for(spec)
    b = make_cache(tmp_path, token="digest-two").key_for(spec)
    assert a != b


def test_source_change_invalidates_previous_entry(tmp_path):
    spec = RunSpec("fig1")
    old = make_cache(tmp_path, token="old-src")
    old.put(old.key_for(spec), b'{"old":true}')
    new = make_cache(tmp_path, token="new-src")
    assert new.get(new.key_for(spec)) is None  # recompute required
    # the old entry is still addressable under the old code version
    assert old.get(old.key_for(spec)) == b'{"old":true}'


def test_disabled_cache_never_hits(tmp_path):
    cache = make_cache(tmp_path, enabled=False)
    key = cache.key_for(RunSpec("fig1"))
    cache.put(key, b"data")
    assert cache.get(key) is None
    assert cache.hits == 0 and cache.misses == 1


def test_source_digest_is_memoized_and_stable():
    assert source_digest() == source_digest()
    assert len(source_digest()) == 64
