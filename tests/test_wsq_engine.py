"""The WsqEngine facade: execution modes, DDL/DML, stats, results."""

import gc
import time

import pytest

from repro.asynciter.resilience import ResiliencePolicy, RetryPolicy
from repro.serve import Deadline
from repro.util.errors import PlanError, QueryDeadlineExceeded
from repro.web.cache import ResultCache
from repro.web.faults import FaultModel
from repro.web.latency import FixedLatency, UniformLatency
from repro.wsq import QueryResult, WsqEngine, format_table


class TestCatalog:
    def test_engine_specific_tables_registered(self, engine):
        for name in (
            "WebCount", "WebPages", "WebCount_AV", "WebPages_AV",
            "WebCount_Google", "WebPages_Google", "WebFetch", "WebLinks",
        ):
            assert name in engine.vtables

    def test_default_tables_use_first_engine(self, engine):
        assert engine.vtables["WebCount"].client.name == "AV"

    def test_unknown_mode_rejected(self, engine):
        with pytest.raises(PlanError, match="mode"):
            engine.execute("Select Name From States", mode="turbo")


class TestExecution:
    def test_plain_select(self, engine):
        result = engine.execute("Select Name From States Limit 3", mode="sync")
        assert len(result) == 3
        assert result.columns == ["Name"]

    def test_async_speedup_with_latency(self, web, paper_db):
        # No cache (whatever REPRO_CACHE says), so the async run sends the
        # 37 calls the sync run sent instead of reading them back; a full
        # collection before each timed query keeps the suite's garbage out.
        latency_engine = WsqEngine(
            database=paper_db, web=web, latency=FixedLatency(0.01), cache=False
        )
        sql = "Select Name, Count From Sigs, WebCount Where Name = T1 and T2 = 'Knuth'"
        gc.collect()
        started = time.perf_counter()
        latency_engine.execute(sql, mode="sync")
        sync_elapsed = time.perf_counter() - started
        gc.collect()
        started = time.perf_counter()
        latency_engine.execute(sql, mode="async")
        async_elapsed = time.perf_counter() - started
        # 37 x 10ms serial vs concurrent: expect a large gap.
        assert sync_elapsed > 4 * async_elapsed

    def test_cache_shared_between_modes(self, web, paper_db):
        cache = ResultCache()
        cached_engine = WsqEngine(database=paper_db, web=web, cache=cache)
        sql = "Select Count From WebCount Where T1 = 'Utah'"
        cached_engine.execute(sql, mode="sync")
        misses = cache.misses
        cached_engine.execute(sql, mode="async")
        assert cache.misses == misses  # async path hit the shared cache
        assert cache.hits >= 1

    def test_explain_modes_differ(self, engine):
        sql = "Select Name, Count From States, WebCount Where Name = T1"
        assert "EVScan" in engine.explain(sql, mode="sync")
        assert "AEVScan" in engine.explain(sql, mode="async")
        assert "ReqSync" in engine.explain(sql, mode="async")

    def test_elapsed_recorded(self, engine):
        result = engine.execute("Select Name From States", mode="sync")
        assert result.elapsed is not None and result.elapsed >= 0


class TestRunStatements:
    def test_create_insert_select_delete_drop(self, engine):
        engine.run("Create Table Pets (Name string, Legs int)")
        engine.run("Insert Into Pets Values ('cat', 4), ('bird', 2), ('snake', 0)")
        result = engine.run("Select Name From Pets Where Legs > 1 Order By Name")
        assert result.rows == [("bird",), ("cat",)]
        deleted = engine.run("Delete From Pets Where Legs = 0")
        assert "1" in deleted.rows[0][0]
        engine.run("Drop Table Pets")
        assert not engine.database.has_table("Pets")

    def test_delete_without_where(self, engine):
        engine.run("Create Table Tmp (A int)")
        engine.run("Insert Into Tmp Values (1), (2)")
        engine.run("Delete From Tmp")
        assert engine.database.table("Tmp").row_count() == 0

    def test_run_select_respects_mode(self, engine):
        result = engine.run("Select Name From Sigs Limit 2", mode="sync")
        assert len(result) == 2


class TestStats:
    def test_stats_structure(self, engine):
        engine.execute("Select Count From WebCount Where T1 = 'Utah'")
        stats = engine.stats()
        assert "pump" in stats
        assert "engines" in stats
        assert stats["requests_sent"]["AV"] >= 1

    def test_cache_stats_present_when_cached(self, web, paper_db):
        cached = WsqEngine(database=paper_db, web=web, cache=ResultCache())
        assert "cache" in cached.stats()


class TestQueryResult:
    def test_column_access(self):
        result = QueryResult(["Name", "Count"], [("x", 1), ("y", 2)])
        assert result.column("count") == [1, 2]
        with pytest.raises(KeyError):
            result.column("nope")

    def test_indexing_and_iteration(self):
        result = QueryResult(["a"], [(1,), (2,)])
        assert result[0] == (1,)
        assert list(result) == [(1,), (2,)]

    def test_format_table_truncation(self):
        result = QueryResult(["col"], [("x" * 100,), ("y",), ("z",)])
        rendered = format_table(result, max_rows=2, max_width=10)
        assert "..." in rendered
        assert "more rows" in rendered

    def test_format_table_nulls(self):
        rendered = format_table(QueryResult(["a"], [(None,)]))
        assert "NULL" in rendered


class TestSubqueryCalls:
    """A subquery's web calls go through the query's pump and context.

    Each case runs the subquery and its top-level twin, which makes the
    same one search, and expects the same treatment for both.
    """

    SUB = (
        "Select Name From States Where Capital In "
        "(Select T1 From WebCount Where T1 = 'Austin')"
    )
    TWIN = "Select Name From States, WebCount Where Capital = T1 and Name = 'Texas'"

    @pytest.mark.parametrize("sql", [SUB, TWIN], ids=["subquery", "twin"])
    def test_the_engine_pump_retries_them(self, web, paper_db, sql):
        engine = WsqEngine(
            database=paper_db,
            web=web,
            cache=False,
            faults=FaultModel(seed=6, transient_rate=0.5),
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=6, base_backoff=0.0)
            ),
        )
        try:
            assert engine.execute(sql).rows == [("Texas",)]
        finally:
            engine.pump.shutdown()

    @pytest.mark.parametrize("sql", [SUB, TWIN], ids=["subquery", "twin"])
    def test_the_query_deadline_bounds_them(self, web, paper_db, sql):
        engine = WsqEngine(
            database=paper_db, web=web, cache=False, latency=UniformLatency(0.3, 0.3)
        )
        started = time.perf_counter()
        with pytest.raises(QueryDeadlineExceeded):
            engine.execute(sql, deadline=Deadline(0.05))
        assert time.perf_counter() - started < 0.25

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("sql", [SUB, TWIN], ids=["subquery", "twin"])
    def test_the_engine_pump_counts_them(self, web, paper_db, sql, mode):
        """The subquery's call goes out on the engine's own pump and on no
        other engine's."""
        engine = WsqEngine(database=paper_db, web=web, cache=False)
        other = WsqEngine(database=paper_db, web=web, cache=False)

        def registered(pump):
            return pump.stats.snapshot()["registered"]

        assert engine.pump is not other.pump
        assert engine.execute(sql, mode=mode).rows == [("Texas",)]
        assert (registered(engine.pump), registered(other.pump)) == (1, 0)
