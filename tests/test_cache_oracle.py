"""Property-test oracle: caching is semantically transparent.

Hypothesis generates WSQ queries over the paper's tables; every query is
run against an *uncached* baseline engine and then twice (cold + warm)
against cached engines spanning the cache matrix — in memory /
persisted to a directory — with a TTL of "never expires" or "expires
instantly".  Across all of
{persistence × TTL × sync/async × faults on/off} the result multiset must be
identical to the baseline, and every emitted trace event must validate
against the registered taxonomy (:func:`validate_trace_events`) — the
cache may change *when* the engine talks to the network, never *what*
the query answers or the shape of what observability records.
"""

import atexit
import shutil
import tempfile
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asynciter.resilience import ResiliencePolicy, RetryPolicy
from repro.datasets import load_all
from repro.obs import Observability
from repro.obs.schema import validate_trace_events
from repro.storage import Database
from repro.web.cache import ResultCache
from repro.web.faults import FaultModel
from repro.web.world import default_web
from repro.wsq import WsqEngine

# -- shared fixtures (module-lazy: the calibrated web costs ~1s once) --------

_WEB = None
_DB = None
_BASELINE = None
_CACHED = {}
_DISK_DIR = tempfile.mkdtemp(prefix="wsq-oracle-cache-")
atexit.register(shutil.rmtree, _DISK_DIR, True)


def web():
    global _WEB
    if _WEB is None:
        _WEB = default_web()
    return _WEB


def db():
    global _DB
    if _DB is None:
        _DB = load_all(Database())
    return _DB


def baseline():
    """The oracle: an engine with the cache forced off."""
    global _BASELINE
    if _BASELINE is None:
        _BASELINE = WsqEngine(database=db(), web=web(), cache=False)
    return _BASELINE


def _build_cache(name):
    if name == "memory":
        return ResultCache()
    if name == "memory-expire":  # every entry expires instantly
        return ResultCache(ttl=0.0)
    if name == "disk":
        return ResultCache(path=_DISK_DIR)
    raise AssertionError(name)


CACHE_CONFIGS = ("memory", "memory-expire", "disk")


def cached_engine(name):
    """One observed engine per cache config, reused across examples."""
    if name not in _CACHED:
        _CACHED[name] = WsqEngine(
            database=db(),
            web=web(),
            cache=_build_cache(name),
            obs=Observability.enabled(),
        )
    return _CACHED[name]


# -- query generator ---------------------------------------------------------

KEYWORDS = ["Knuth", "computer", "beaches", "scuba diving"]
BASE_TABLES = [("Sigs", "Name"), ("CSFields", "Name"), ("Movies", "Title")]


@st.composite
def wsq_query(draw):
    table, column = draw(st.sampled_from(BASE_TABLES))
    vtable = draw(st.sampled_from(["WebCount", "WebPages", "WebCount_Google"]))
    where = ["{} = T1".format(column)]
    if draw(st.booleans()):
        where.append("T2 = '{}'".format(draw(st.sampled_from(KEYWORDS))))
    select = "{}.{}".format(table, column)
    if vtable.startswith("WebCount"):
        select += ", Count"
        extra = draw(st.sampled_from(["", "Count > 0", "Count >= 5"]))
        if extra:
            where.append(extra)
    else:
        select += ", URL, Rank"
        where.append("Rank <= {}".format(draw(st.integers(1, 4))))
    order = draw(st.sampled_from(["", " Order By {}".format(column)]))
    return "Select {} From {}, {} Where {}{}".format(
        select, table, vtable, " and ".join(where), order
    )


def multiset(result):
    return Counter(tuple(row) for row in result.rows)


def run_and_validate(engine, sql, mode):
    tracer = engine.tracer
    before = len(tracer) if tracer is not None else 0
    result = engine.run(sql, mode=mode)
    if tracer is not None:
        engine.pump.quiesce()
        problems = validate_trace_events(tracer.events()[before:])
        assert not problems, problems
    return multiset(result)


# -- the oracle --------------------------------------------------------------


class TestCacheTransparency:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        wsq_query(),
        st.sampled_from(CACHE_CONFIGS),
        st.sampled_from(["sync", "async"]),
    )
    def test_cached_equals_uncached_cold_and_warm(self, sql, config, mode):
        expected = multiset(baseline().run(sql, mode="sync"))
        engine = cached_engine(config)
        cold = run_and_validate(engine, sql, mode)
        warm = run_and_validate(engine, sql, mode)
        assert cold == expected, "cold {} run diverged under {}".format(
            mode, config
        )
        assert warm == expected, "warm {} run diverged under {}".format(
            mode, config
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(wsq_query())
    def test_sync_and_async_agree_through_one_shared_cache(self, sql):
        """Both execution modes read and write the *same* cache."""
        engine = cached_engine("disk")
        assert run_and_validate(engine, sql, "sync") == run_and_validate(
            engine, sql, "async"
        )

    def test_warm_cache_skips_the_network(self):
        """Sanity on the oracle itself: the warm runs actually hit."""
        engine = cached_engine("memory")
        sql = (
            "Select Sigs.Name, Count From Sigs, WebCount "
            "Where Name = T1 and T2 = 'oracle-warmth'"
        )
        engine.run(sql, mode="sync")
        hits_before = engine.cache.hits
        misses_before = engine.cache.misses
        engine.run(sql, mode="sync")
        assert engine.cache.misses == misses_before  # nothing re-fetched
        assert engine.cache.hits > hits_before

    @pytest.mark.parametrize("repeats", [1, 2, 3, 5])
    def test_hit_ratio_curve_is_k_minus_one_over_k(self, repeats):
        """k executions of one query: the first misses, every re-run hits
        (the curve ``benchmarks/test_cache_sweep.py`` times)."""
        cache = ResultCache()
        engine = WsqEngine(database=db(), web=web(), cache=cache)
        sql = (
            "Select Name, Count From Sigs, WebCount "
            "Where Name = T1 and T2 = 'computer'"
        )
        for _ in range(repeats):
            assert len(engine.run(sql, mode="sync").rows) == 37
        assert cache.misses == 37
        assert cache.hit_ratio() == pytest.approx((repeats - 1) / repeats)


class TestCacheTransparencyUnderFaults:
    """Deterministic fault schedules: caching never changes the drop-set."""

    SEED, RATE = 7, 0.35

    def _engine(self, cache):
        return WsqEngine(
            database=db(),
            web=web(),
            cache=cache,
            faults=FaultModel(seed=self.SEED, transient_rate=self.RATE),
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=2, base_backoff=0.0)
            ),
            on_error="drop",
        )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from(["Sigs", "CSFields"]),
        st.sampled_from(["sync", "async"]),
    )
    def test_drop_set_identical_with_and_without_cache(self, table, mode):
        sql = (
            "Select {t}.Name, Count From {t}, WebCount Where Name = T1"
        ).format(t=table)
        uncached = self._engine(cache=False)
        cached = self._engine(cache=ResultCache())
        try:
            expected = multiset(uncached.run(sql, mode=mode))
            cold = multiset(cached.run(sql, mode=mode))
            warm = multiset(cached.run(sql, mode=mode))
            assert cold == expected
            assert warm == expected
        finally:
            for engine in (uncached, cached):
                if engine.pump is not None:
                    engine.pump.shutdown()
