"""TTL semantics on a VirtualClock — no ``time.sleep`` anywhere.

These tests pin the boundary documented on
:class:`repro.web.cache.ResultCache`: an entry is **fresh** strictly
before ``stored_at + ttl`` and **expired** from exactly then on.

They also pin the counter migration onto ``MetricsRegistry`` — the old
racy plain-int hit/miss fields are gone — and the same semantics for a
cache persisted to a ``path``.
"""

import os
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.util.timing import VirtualClock
from repro.web.cache import ResultCache, make_cache

KEY = ("AV", "search", "austin", 10)


def make(ttl=10.0, **kwargs):
    clock = VirtualClock()
    return ResultCache(ttl=ttl, clock=clock, **kwargs), clock


class TestTtlBoundaries:
    def test_fresh_strictly_before_ttl(self):
        cache, clock = make(ttl=10.0)
        cache.put(KEY, "v")
        clock.advance(9.999999)
        assert cache.lookup(KEY) == "v"

    def test_expires_exactly_at_ttl_without_staleness(self):
        cache, clock = make(ttl=10.0)
        cache.put(KEY, "v")
        clock.advance(10.0)
        assert cache.lookup(KEY) is None
        assert cache.detailed_stats()["misses"] == 1

    def test_expired_entry_is_lazily_evicted(self):
        cache, clock = make(ttl=1.0)
        cache.put(KEY, "v")
        assert len(cache) == 1
        clock.advance(2.0)
        assert cache.lookup(KEY) is None
        assert len(cache) == 0  # the expired entry is gone
        assert cache.detailed_stats()["evictions"] == 1

    def test_none_ttl_never_expires(self):
        cache, clock = make(ttl=None)
        cache.put(KEY, "v")
        clock.advance(10**9)
        assert cache.lookup(KEY) == "v"

def persisted(tmp_path, ttl=None):
    """A writer and a fresh reader over one directory, on one clock.

    The reader's LRU starts empty, so its first lookup of a key is
    served from the writer's file.
    """
    clock = VirtualClock()
    writer, reader = (
        ResultCache(ttl=ttl, clock=clock, path=str(tmp_path)) for _ in range(2)
    )
    return writer, reader, clock


class TestDiskTierTtl:
    def test_disk_entries_expire_on_virtual_clock(self, tmp_path):
        writer, reader, clock = persisted(tmp_path, ttl=5.0)
        writer.put(KEY, ["row"])
        assert reader.lookup(KEY) == ["row"]
        clock.advance(5.0)
        assert reader.lookup(KEY) is None
        assert len(reader) == 0
        assert os.listdir(tmp_path) == []  # the expired file was unlinked

    def test_a_file_read_keeps_its_first_store_time(self, tmp_path):
        # Read from the file at t=9 with ttl=10: the entry is still the
        # one stored at t=0, so at t=14 it has expired for the reader
        # exactly as it has for the writer.
        writer, reader, clock = persisted(tmp_path, ttl=10.0)
        writer.put(KEY, "v")
        clock.advance(9.0)
        assert reader.lookup(KEY) == "v"
        clock.advance(5.0)
        assert writer.lookup(KEY) is None
        assert reader.lookup(KEY) is None


class TestTieredStack:
    def test_disk_hit_promotes_to_memory(self, tmp_path):
        # Every store is also written to its file; a fresh cache over
        # the same directory finds the value there and keeps it in its
        # LRU, so the next read needs no file.
        writer, reader, _ = persisted(tmp_path)
        writer.put(KEY, "v")
        assert len(reader) == 0
        assert reader.lookup(KEY) == "v"
        assert len(reader) == 1
        for name in os.listdir(tmp_path):
            os.unlink(os.path.join(tmp_path, name))
        assert reader.lookup(KEY) == "v"
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
        cache = make_cache(tier="memory", ttl=30.0)
        assert cache.ttl == 30.0

    def test_make_cache_off_is_none(self):
        assert make_cache(tier="off") is None

    def test_make_cache_names_the_tiers_it_accepts(self):
        with pytest.raises(ValueError, match="off/memory/disk"):
            make_cache(tier="tiered")

    @pytest.mark.parametrize("ttl", [-5.0, float("nan")])
    def test_a_negative_or_nan_ttl_is_refused(self, ttl):
        with pytest.raises(ValueError, match="ttl"):
            ResultCache(ttl=ttl)
        with pytest.raises(ValueError, match="ttl"):
            make_cache(tier="memory", ttl=ttl)
