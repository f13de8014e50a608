"""Campaign throughput: ``--jobs N`` speedup + warm-cache re-run cost.

A fixed 8-run matrix (BT-MZ at eight iteration counts) is executed
three ways:

1. serial (``jobs=1``),
2. parallel (``jobs=4``) with a fresh cache,
3. parallel again against the now-warm cache.

The parallel pass must beat serial wall-clock, the warm pass must be
near-zero (every run answered from the content-addressed cache), and
all three must produce byte-identical payloads.
"""

import os
import time

from repro.campaign import CampaignExecutor, CampaignStore, ResultCache, expand_matrix


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1

#: Eight genuinely distinct BT-MZ runs, heavy enough (~0.3-1.2s each)
#: that worker dispatch overhead is noise against the simulation cost.
MATRIX = expand_matrix(
    "bench-throughput",
    ["table5"],
    grid={"iterations": [120, 160, 200, 240, 280, 320, 360, 400]},
)


def _executor(tmp_path, tag, jobs, cache_dir=None):
    return CampaignExecutor(
        jobs=jobs,
        cache=ResultCache(cache_dir or tmp_path / tag / "cache"),
        store=CampaignStore(tmp_path / tag / "store"),
        verify=0,
    )


def test_campaign_parallel_speedup_and_warm_cache(tmp_path):
    assert len(MATRIX.runs) == 8

    t0 = time.perf_counter()
    serial = _executor(tmp_path, "serial", jobs=1).run(MATRIX)
    t_serial = time.perf_counter() - t0
    assert len(serial.ok) == 8

    shared_cache = tmp_path / "parallel" / "cache"
    t0 = time.perf_counter()
    parallel = _executor(
        tmp_path, "parallel", jobs=4, cache_dir=shared_cache
    ).run(MATRIX)
    t_parallel = time.perf_counter() - t0
    assert len(parallel.ok) == 8

    t0 = time.perf_counter()
    warm = _executor(tmp_path, "warm", jobs=4, cache_dir=shared_cache).run(MATRIX)
    t_warm = time.perf_counter() - t0

    cpus = _usable_cpus()
    print(
        f"\nserial {t_serial:.2f}s | parallel(4) {t_parallel:.2f}s "
        f"(speedup {t_serial / t_parallel:.2f}x on {cpus} CPUs) | "
        f"warm cache {t_warm:.3f}s (hit ratio {warm.cache_hit_ratio:.0%})"
    )

    # determinism across all three execution modes
    assert serial.payloads == parallel.payloads == warm.payloads

    assert warm.cache_hit_ratio == 1.0
    if cpus >= 4:
        assert t_parallel < t_serial, "4 workers should beat serial"
    assert t_warm < t_serial / 3, "warm-cache re-run should be near-zero"
