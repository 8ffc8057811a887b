"""Cache sweep: hit ratio vs speedup on the Figure-7 repeated-search plan.

The paper's Figure 7(a) plan re-sends identical searches (|R| per Sig);
[HN96]-style result caching is its antidote.  This sweep drives the
repeated-search workload at increasing re-execution counts, so the
observed hit ratio climbs from 0 toward ``(k-1)/k``, and records the
speedup the cache bought at each point — the "hit-ratio vs speedup"
curve.

A second table compares *warm* runs across the tier stacks (memory /
memory+disk): both must clear the >= 2x warm-speedup bar, since a warm
cache removes every simulated network round trip from the critical path.

Results land in ``benchmarks/results/cache_sweep.txt``.
"""

import time

import pytest

from conftest import results_path
from repro.bench.workloads import bench_engine
from repro.web.cache import make_cache

SQL = "Select Name, Count From Sigs, WebCount Where Name = T1 and T2 = 'computer'"
ROWS = 37  # |Sigs|
REPEAT_COUNTS = [1, 2, 3, 5]
TIERS = ["memory", "disk"]

_CURVE = {}  # repeats -> (hit_ratio, uncached_s, cached_s, speedup)
_WARM = {}  # tier -> (cold_s, warm_s, speedup, hit_ratio)


def _timed_runs(engine, repeats):
    started = time.perf_counter()
    for _ in range(repeats):
        result = engine.execute(SQL, mode="sync")
        assert len(result) == ROWS
    return time.perf_counter() - started


@pytest.mark.parametrize("repeats", REPEAT_COUNTS, ids=lambda r: "x{}".format(r))
def test_hit_ratio_vs_speedup_curve(benchmark, repeats):
    """k executions of one query: hit ratio (k-1)/k, speedup follows."""

    def run():
        uncached = bench_engine(cache=False)
        uncached_s = _timed_runs(uncached, repeats)
        cache = make_cache(tier="memory")
        cached = bench_engine(cache=cache)
        cached_s = _timed_runs(cached, repeats)
        return uncached_s, cached_s, cache

    uncached_s, cached_s, cache = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = cache.hit_ratio()
    speedup = uncached_s / cached_s if cached_s > 0 else float("inf")
    _CURVE[repeats] = (ratio, uncached_s, cached_s, speedup)
    # The ratio is structural: first pass misses, every re-run hits.
    assert ratio == pytest.approx((repeats - 1) / repeats, abs=1e-9)


@pytest.mark.parametrize("tier", TIERS, ids=lambda t: "tier={}".format(t))
def test_warm_cache_speedup_per_tier(benchmark, tier, tmp_path):
    """Warm runs must beat the uncached baseline by >= 2x on every tier."""

    def run():
        baseline = bench_engine(cache=False)
        cold_s = _timed_runs(baseline, 1)
        cache = make_cache(tier=tier, disk_path=str(tmp_path / "disk"))
        engine = bench_engine(cache=cache)
        _timed_runs(engine, 1)  # warm-up: populate every tier
        warm_s = _timed_runs(engine, 1)
        return cold_s, warm_s, cache

    cold_s, warm_s, cache = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    _WARM[tier] = (cold_s, warm_s, speedup, cache.hit_ratio())
    assert speedup >= 2.0, (
        "warm {} cache only {:.2f}x faster than uncached".format(tier, speedup)
    )


def test_write_sweep_artifact():
    """Summarize both sweeps; this runs last (file order) and persists."""
    assert set(_CURVE) == set(REPEAT_COUNTS)
    assert set(_WARM) == set(TIERS)
    lines = [
        "cache sweep: {} ({} searches per execution)".format(SQL, ROWS),
        "",
        "hit-ratio vs speedup (memory tier, k repeated executions):",
        "{:>8} {:>10} {:>12} {:>12} {:>9}".format(
            "repeats", "hit-ratio", "uncached(s)", "cached(s)", "speedup"
        ),
    ]
    for repeats in REPEAT_COUNTS:
        ratio, uncached_s, cached_s, speedup = _CURVE[repeats]
        lines.append(
            "{:>8} {:>10.3f} {:>12.4f} {:>12.4f} {:>8.2f}x".format(
                repeats, ratio, uncached_s, cached_s, speedup
            )
        )
    lines += [
        "",
        "warm-cache speedup per tier (single re-execution):",
        "{:>8} {:>10} {:>10} {:>9} {:>10}".format(
            "tier", "cold(s)", "warm(s)", "speedup", "hit-ratio"
        ),
    ]
    for tier in TIERS:
        cold_s, warm_s, speedup, ratio = _WARM[tier]
        lines.append(
            "{:>8} {:>10.4f} {:>10.4f} {:>8.2f}x {:>10.3f}".format(
                tier, cold_s, warm_s, speedup, ratio
            )
        )
    body = "\n".join(lines) + "\n"
    with open(results_path("cache_sweep.txt"), "w") as f:
        f.write(body)
    print()
    print(body)
    # Monotone sanity: more repeats -> higher hit ratio, and the curve's
    # top end must clear the same 2x bar as the warm-tier table.
    ratios = [_CURVE[r][0] for r in REPEAT_COUNTS]
    assert ratios == sorted(ratios)
    assert _CURVE[REPEAT_COUNTS[-1]][3] >= 2.0
