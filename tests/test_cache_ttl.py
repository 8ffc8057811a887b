"""TTL / staleness semantics on a VirtualClock — no ``time.sleep`` anywhere.

These tests pin the boundary semantics documented in
:meth:`repro.web.cache.CachePolicy.classify`:

- an entry is **fresh** strictly before ``stored_at + ttl``;
- **stale** (served, counted under ``cache.stale``) from exactly ``ttl``
  up to (exclusive) ``ttl + max_staleness``;
- **expired** from exactly ``ttl + max_staleness`` on;
- **negative** entries (failures, empty results) get *no* serve-stale
  window and may use a shorter ``negative_ttl``.

They also pin the counter migration onto ``MetricsRegistry`` — the old
racy plain-int hit/miss fields are gone — and the same semantics for a
cache persisted to a ``path``.
"""

import os
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.util.errors import TransientWebError
from repro.util.timing import VirtualClock
from repro.web.cache import (
    FRESH,
    MISS,
    NEGATIVE,
    STALE,
    CachedFailure,
    CachePolicy,
    ResultCache,
    make_cache,
)

KEY = ("AV", "search", "austin", 10)


def make(ttl=10.0, max_staleness=0.0, negative_ttl=None, **kwargs):
    clock = VirtualClock()
    policy = CachePolicy(
        default_ttl=ttl, max_staleness=max_staleness, negative_ttl=negative_ttl
    )
    return ResultCache(policy=policy, clock=clock, **kwargs), clock


class TestTtlBoundaries:
    def test_fresh_strictly_before_ttl(self):
        cache, clock = make(ttl=10.0)
        cache.put(KEY, "v")
        clock.advance(9.999999)
        assert cache.lookup(KEY).status == FRESH

    def test_expires_exactly_at_ttl_without_staleness(self):
        cache, clock = make(ttl=10.0, max_staleness=0.0)
        cache.put(KEY, "v")
        clock.advance(10.0)
        found = cache.lookup(KEY)
        assert found.status == MISS
        assert not found.hit
        assert found.value is None

    def test_stale_window_opens_exactly_at_ttl(self):
        cache, clock = make(ttl=10.0, max_staleness=5.0)
        cache.put(KEY, "v")
        clock.advance(10.0)
        found = cache.lookup(KEY)
        assert found.status == STALE
        assert found.hit  # stale entries are still served
        assert found.value == "v"

    def test_stale_window_is_exclusive_at_upper_bound(self):
        # The off-by-one the issue calls out: ttl + max_staleness is
        # already expired; one tick before is still stale.
        cache, clock = make(ttl=10.0, max_staleness=5.0)
        cache.put(KEY, "v")
        clock.advance(14.999999)
        assert cache.lookup(KEY).status == STALE
        cache.put(KEY, "v")  # re-store at t=14.999999
        clock.advance(15.0)  # age of the new entry: exactly 15.0
        assert cache.lookup(KEY).status == MISS

    def test_expired_entry_is_lazily_evicted(self):
        cache, clock = make(ttl=1.0)
        cache.put(KEY, "v")
        assert len(cache) == 1
        clock.advance(2.0)
        assert cache.lookup(KEY).status == MISS
        assert len(cache) == 0  # the expired entry is gone
        assert cache.detailed_stats()["evictions"] == 1

    def test_none_ttl_never_expires(self):
        cache, clock = make(ttl=None)
        cache.put(KEY, "v")
        clock.advance(10**9)
        assert cache.lookup(KEY).status == FRESH

    def test_per_kind_ttl_overrides_default(self):
        clock = VirtualClock()
        policy = CachePolicy(default_ttl=100.0, ttl_by_kind={"count": 5.0})
        cache = ResultCache(policy=policy, clock=clock)
        count_key = ("AV", "count", "austin", None)
        search_key = ("AV", "search", "austin", 10)
        cache.put(count_key, 7)
        cache.put(search_key, ["r"])
        clock.advance(5.0)
        assert cache.lookup(count_key).status == MISS  # count TTL hit
        assert cache.lookup(search_key).status == FRESH  # default TTL not


class TestNegativeCaching:
    def test_failure_replayed_while_negative_ttl_fresh(self):
        cache, clock = make(ttl=100.0, negative_ttl=2.0)
        assert cache.put_failure(KEY, TransientWebError("engine down"))
        found = cache.lookup(KEY)
        assert found.status == NEGATIVE
        assert found.failure and not found.hit
        assert isinstance(found.value, CachedFailure)
        assert found.value.error_type == "TransientWebError"
        assert "engine down" in found.value.message

    def test_negative_ttl_shorter_than_positive(self):
        # A failure record and a value stored at the same instant: the
        # failure ages out first, the value outlives it.
        cache, clock = make(ttl=100.0, negative_ttl=2.0)
        other = ("Google", "search", "dallas", 10)
        cache.put_failure(KEY, TransientWebError("boom"))
        cache.put(other, ["row"])
        clock.advance(2.0)
        assert cache.lookup(KEY).status == MISS  # failure expired
        assert cache.lookup(other).status == FRESH  # value still good

    def test_negative_entries_get_no_stale_window(self):
        cache, clock = make(ttl=100.0, max_staleness=50.0, negative_ttl=2.0)
        cache.put_failure(KEY, TransientWebError("boom"))
        clock.advance(1.999999)
        assert cache.lookup(KEY).status == NEGATIVE
        cache, clock = make(ttl=100.0, max_staleness=50.0, negative_ttl=2.0)
        cache.put_failure(KEY, TransientWebError("boom"))
        clock.advance(2.0)  # exactly negative_ttl: no stale window applies
        assert cache.lookup(KEY).status == MISS  # straight to expired

    def test_empty_results_are_negative_when_enabled(self):
        cache, clock = make(ttl=100.0, negative_ttl=2.0)
        cache.put(KEY, [])  # empty → negative TTL applies
        assert cache.lookup(KEY).status == FRESH  # still a value, not a failure
        clock.advance(2.0)
        assert cache.lookup(KEY).status == MISS

    def test_empty_results_age_normally_without_negative_ttl(self):
        cache, clock = make(ttl=100.0, negative_ttl=None)
        cache.put(KEY, [])
        clock.advance(50.0)
        assert cache.lookup(KEY).status == FRESH

    def test_put_failure_is_noop_without_negative_ttl(self):
        cache, clock = make(ttl=100.0, negative_ttl=None)
        assert cache.put_failure(KEY, TransientWebError("boom")) is False
        assert cache.lookup(KEY).status == MISS
        assert len(cache) == 0


def persisted(tmp_path, **policy):
    """A writer and a fresh reader over one directory, on one clock.

    The reader's LRU starts empty, so its first lookup of a key is
    served from the writer's file.
    """
    clock = VirtualClock()
    policy = CachePolicy(**policy)
    writer, reader = (
        ResultCache(policy=policy, clock=clock, path=str(tmp_path)) for _ in range(2)
    )
    return writer, reader, clock


class TestDiskTierTtl:
    def test_disk_entries_expire_on_virtual_clock(self, tmp_path):
        writer, reader, clock = persisted(tmp_path, default_ttl=5.0)
        writer.put(KEY, ["row"])
        assert reader.lookup(KEY).status == FRESH
        clock.advance(5.0)
        assert reader.lookup(KEY).status == MISS
        assert len(reader) == 0
        assert os.listdir(tmp_path) == []  # the expired file was unlinked

    def test_disk_stale_window(self, tmp_path):
        writer, reader, clock = persisted(tmp_path, default_ttl=5.0, max_staleness=5.0)
        writer.put(KEY, ["row"])
        clock.advance(7.0)
        found = reader.lookup(KEY)
        assert found.status == STALE and found.value == ["row"]

    def test_disk_negative_entries_expire_first(self, tmp_path):
        writer, reader, clock = persisted(tmp_path, default_ttl=100.0, negative_ttl=1.0)
        writer.put_failure(KEY, TransientWebError("down"))
        assert reader.lookup(KEY).status == NEGATIVE
        clock.advance(1.0)
        assert reader.lookup(KEY).status == MISS

    def test_a_file_read_keeps_its_first_store_time(self, tmp_path):
        # Read from the file at t=9 with ttl=10: the entry is still the
        # one stored at t=0, so at t=14 it has expired for the reader
        # exactly as it has for the writer.
        writer, reader, clock = persisted(tmp_path, default_ttl=10.0)
        writer.put(KEY, "v")
        clock.advance(9.0)
        assert reader.lookup(KEY).status == FRESH
        clock.advance(5.0)
        assert writer.lookup(KEY).status == MISS
        assert reader.lookup(KEY).status == MISS


class TestTieredStack:
    def test_disk_hit_promotes_to_memory(self, tmp_path):
        # Every store is also written to its file; a fresh cache over
        # the same directory finds the value there and keeps it in its
        # LRU, so the next read needs no file.
        writer, reader, _ = persisted(tmp_path)
        writer.put(KEY, "v")
        assert len(reader) == 0
        assert reader.lookup(KEY).value == "v"
        assert len(reader) == 1
        for name in os.listdir(tmp_path):
            os.unlink(os.path.join(tmp_path, name))
        assert reader.lookup(KEY).value == "v"
        assert reader.detailed_stats()["path"] == str(tmp_path)


class TestCounterRegression:
    """Satellite: hit/miss counters moved onto MetricsRegistry."""

    def test_counters_are_registry_backed(self):
        registry = MetricsRegistry()
        cache = ResultCache(metrics=registry)
        cache.lookup(("missing",))
        cache.put(("k",), "v")
        cache.lookup(("k",))
        assert registry.counter_value("cache.hit") == 1
        assert registry.counter_value("cache.miss") == 1
        assert registry.counter_value("cache.store") == 1
        # The legacy properties are views over the same storage.
        assert cache.hits == 1 and cache.misses == 1

    def test_attach_observability_migrates_counts(self):
        cache = ResultCache()
        cache.lookup(("missing",))
        cache.put(("k",), "v")
        cache.lookup(("k",))
        before = cache.detailed_stats()
        registry = MetricsRegistry()
        cache.attach_observability(metrics=registry)
        # Counts carried over; the stats are unchanged by the re-bind.
        assert cache.detailed_stats() == before
        assert registry.counter_value("cache.hit") == 1
        assert registry.counter_value("cache.miss") == 1

    def test_stale_serves_count_as_hits_in_stats(self):
        cache, clock = make(ttl=10.0, max_staleness=10.0)
        cache.put(KEY, "v")
        clock.advance(12.0)
        assert cache.lookup(KEY).status == STALE
        detailed = cache.detailed_stats()
        assert detailed["hits"] == 1 and detailed["misses"] == 0
        assert detailed["stale_hits"] == 1
        assert detailed["hit_ratio"] == 1.0

    def test_concurrent_hammer_loses_no_counts(self):
        # The point of the migration: plain-int += was racy under
        # threads; registry counters hold a lock.  hits + misses must
        # equal the exact number of lookups issued.
        cache = ResultCache()
        cache.put(("k",), "v")
        per_thread, n_threads = 500, 8
        barrier = threading.Barrier(n_threads)

        def hammer(i):
            barrier.wait()
            for j in range(per_thread):
                if j % 2:
                    cache.lookup(("k",))
                else:
                    cache.lookup(("missing", i, j))

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.hits + cache.misses == per_thread * n_threads

    def test_trace_events_carry_tier_and_key(self):
        tracer = Tracer()
        cache = ResultCache(tracer=tracer, clock=VirtualClock())
        cache.lookup(KEY)
        cache.put(KEY, "v")
        cache.lookup(KEY)
        names = [e.name for e in tracer.events()]
        assert names == ["cache.miss", "cache.hit"]
        hit = tracer.events()[-1]
        assert "tier" not in hit.args
        assert hit.destination == "AV"
        assert "austin" in hit.args["key"]


class TestMakeCacheTtlKnobs:
    def test_make_cache_threads_ttl_through(self):
        cache = make_cache(tier="memory", ttl=30.0, max_staleness=5.0)
        assert cache.policy.default_ttl == 30.0
        assert cache.policy.max_staleness == 5.0

    def test_make_cache_off_is_none(self):
        assert make_cache(tier="off") is None

    def test_make_cache_names_the_tiers_it_accepts(self):
        with pytest.raises(ValueError, match="off/memory/disk"):
            make_cache(tier="tiered")

    def test_policy_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            CachePolicy(max_staleness=-1.0)
        with pytest.raises(ValueError):
            CachePolicy(negative_ttl=-0.5)
