"""One result cache: every lookup is one outcome, and a ``path`` persists.

``ResultCache(path=)`` writes each store to one file per key and reads a
key its LRU does not hold back from that file.  These tests pin what the
read surface promises with and without a path — exactly one of
``cache.hit``/``cache.stale``/``cache.miss`` counted *and* traced per
lookup — and that the files keep the documented format: a pickled dict
``{"version", "key", "stored_at", "negative", "value"}`` named by the
SHA-256 of ``"v<version>:<key repr>"`` plus ``.wsqc``.
"""

import hashlib
import os
import pickle
import sys
import tempfile
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.calibration import _observed_hit_ratio
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import CACHE_HIT, CACHE_MISS, CACHE_STALE, Tracer
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
)

OUTCOMES = (CACHE_HIT, CACHE_STALE, CACHE_MISS)


def key(i):
    return ("AV", "search", "q{}".format(i), 10)


def outcome_events(tracer):
    return [event.name for event in tracer.events(OUTCOMES)]


def write_by_hand(directory, cache_key, value, stored_at, negative=False, **override):
    """One entry in the documented on-disk format, built without the cache."""
    payload = {
        "version": 1,
        "key": repr(cache_key),
        "stored_at": stored_at,
        "negative": negative,
        "value": value,
    }
    payload.update(override)
    digest = hashlib.sha256("v1:{!r}".format(cache_key).encode("utf-8")).hexdigest()
    path = os.path.join(directory, digest + ".wsqc")
    with open(path, "wb") as f:
        pickle.dump(payload, f)
    return path


class TestOneOutcomePerLookup:
    def test_disk_served_lookups_trace_one_hit_each(self, tmp_path):
        writer = ResultCache(path=str(tmp_path))
        for i in range(8):
            writer.put(key(i), [i])
        tracer = Tracer()
        reader = ResultCache(path=str(tmp_path), tracer=tracer)
        for i in range(8):
            assert reader.lookup(key(i)).value == [i]
        assert outcome_events(tracer) == [CACHE_HIT] * 8
        assert _observed_hit_ratio(None, tracer) == reader.hit_ratio() == 1.0
        assert reader.lookup(key(99)).status == MISS
        assert outcome_events(tracer) == [CACHE_HIT] * 8 + [CACHE_MISS]
        assert _observed_hit_ratio(None, tracer) == reader.hit_ratio() == 8 / 9

    @settings(max_examples=60, deadline=None)
    @given(
        persisted=st.booleans(),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "put_empty", "put_failure", "lookup", "advance"]),
                st.integers(0, 1),  # which of the two caches
                st.integers(0, 3),  # which key
                st.sampled_from([0.5, 1.0, 2.0, 4.0]),  # seconds, for "advance"
            ),
            max_size=40,
        ),
    )
    def test_counters_and_trace_match_the_lookups(self, persisted, ops):
        clock = VirtualClock()
        registry = MetricsRegistry()
        tracer = Tracer()
        policy = CachePolicy(default_ttl=3.0, max_staleness=2.0, negative_ttl=1.0)
        with tempfile.TemporaryDirectory() as directory:
            caches = [
                ResultCache(
                    capacity=2,
                    policy=policy,
                    clock=clock,
                    metrics=registry,
                    tracer=tracer,
                    path=directory if persisted else None,
                )
                for _ in range(2)
            ]
            lookups, stored = 0, {}
            for serial, (op, which, k, seconds) in enumerate(ops):
                cache = caches[which]
                if op == "put":
                    cache.put(key(k), serial)
                    stored.setdefault(k, set()).add(serial)
                elif op == "put_empty":
                    cache.put(key(k), [])
                elif op == "put_failure":
                    cache.put_failure(key(k), TransientWebError("down"))
                elif op == "advance":
                    clock.advance(seconds)
                else:
                    lookups += 1
                    found = cache.lookup(key(k))
                    if found.status == NEGATIVE:
                        assert isinstance(found.value, CachedFailure)
                    elif found.status in (FRESH, STALE) and found.value != []:
                        assert found.value in stored[k]
        counted = sum(registry.counter_value(name) for name in OUTCOMES)
        assert counted == lookups
        assert len(outcome_events(tracer)) == lookups

    def test_threads_reading_files_lose_no_counts(self, tmp_path):
        # A capacity of one keeps sending lookups to the files, so the
        # threads race on reading them back into one small LRU.
        writer = ResultCache(path=str(tmp_path))
        for i in range(6):
            writer.put(key(i), [i])
        reader = ResultCache(capacity=1, path=str(tmp_path))
        per_thread, n_threads = 200, 8
        barrier = threading.Barrier(n_threads)
        wrong = []

        def hammer(t):
            barrier.wait(timeout=10)
            for j in range(per_thread):
                i = (t + j) % 7  # key(6) was never stored
                found = reader.lookup(key(i))
                if found.value != ([i] if i < 6 else None):
                    wrong.append((i, found.status, found.value))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert reader.hits + reader.misses == per_thread * n_threads
        assert len(reader) == 1


class TestOnDiskFormat:
    def test_a_hand_written_directory_is_read_back(self, tmp_path):
        clock = VirtualClock(100.0)
        write_by_hand(tmp_path, key(1), ["row"], stored_at=95.0)
        write_by_hand(tmp_path, key(2), [], stored_at=99.5, negative=True)
        write_by_hand(
            tmp_path,
            key(3),
            CachedFailure("TransientWebError", "down"),
            stored_at=99.5,
            negative=True,
        )
        write_by_hand(tmp_path, key(4), ["old"], stored_at=99.0, version=2)
        write_by_hand(tmp_path, key(5), ["wrong"], stored_at=99.0, key=repr(key(6)))
        with open(write_by_hand(tmp_path, key(7), ["torn"], stored_at=99.0), "r+b") as f:
            f.truncate(10)
        cache = ResultCache(
            policy=CachePolicy(default_ttl=10.0, negative_ttl=1.0),
            clock=clock,
            path=str(tmp_path),
        )
        found = cache.lookup(key(1))
        assert (found.status, found.value) == (FRESH, ["row"])
        assert cache.lookup(key(2)).status == FRESH
        failure = cache.lookup(key(3))
        assert failure.status == NEGATIVE
        assert failure.value.error_type == "TransientWebError"
        for foreign in (4, 5, 7):  # format bump, hash collision, torn file
            assert cache.lookup(key(foreign)).status == MISS
        clock.advance(0.5)  # the negative entries stored at 99.5 expire at 100.5
        assert cache.lookup(key(2)).status == MISS
        assert cache.lookup(key(3)).status == MISS
        clock.advance(4.5)  # ["row"] was stored at 95.0: expired at 105.0
        assert cache.lookup(key(1)).status == MISS

    def test_a_store_writes_the_documented_payload(self, tmp_path):
        cache = ResultCache(clock=VirtualClock(7.0), path=str(tmp_path))
        cache.put(key(1), ["row"])
        (name,) = os.listdir(tmp_path)
        expected = hashlib.sha256("v1:{!r}".format(key(1)).encode("utf-8")).hexdigest()
        assert name == expected + ".wsqc"
        with open(os.path.join(tmp_path, name), "rb") as f:
            payload = pickle.load(f)
        assert payload == {
            "version": 1,
            "key": repr(key(1)),
            "stored_at": 7.0,
            "negative": False,
            "value": ["row"],
        }

    def test_unpicklable_values_stay_in_memory(self, tmp_path):
        cache = ResultCache(path=str(tmp_path))
        cache.put(key(1), lambda: None)
        assert os.listdir(tmp_path) == []
        assert cache.lookup(key(1)).status == FRESH

    def test_clear_drops_the_files_too(self, tmp_path):
        cache = ResultCache(path=str(tmp_path))
        cache.put(key(1), [1])
        cache.clear()
        assert len(cache) == 0 and os.listdir(tmp_path) == []
        assert cache.lookup(key(1)).status == MISS
