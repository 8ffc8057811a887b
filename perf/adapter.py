"""The benchmark's one door into ``repro``: no other file under ``perf/`` imports it.

A later change that renames or removes a public call is then a one-file
fix here, and the workloads, oracles and metric definitions stay put.
Only public names are used, and none the ROADMAP plans to delete (the
batch-layout knobs, ``RowBatch``, ``wsq/profile.py``, ``repro.bench``).
"""

import time

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import PumpLimits, RequestPump
from repro.asynciter.rewrite import rewrite_logical
from repro.datasets import load_all
from repro.exec import Filter, NestedLoopJoin, RowsScan, collect_batches, execute_batches
from repro.obs import Observability
from repro.plan.logical import contains_external_scan
from repro.plan.physical import lower
from repro.plan.planner import Planner
from repro.relational.expr import ColumnRef, Comparison, Literal, kernel_stats
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.serve import QueryService, TenantPolicy
from repro.sql.parser import parse_select
from repro.storage import Database
from repro.web import SearchClient, SimulatedWeb, UniformLatency
from repro.web.cache import ResultCache, make_cache
from repro.wsq import WsqEngine

TENANTS = ("gold", "silver")
SERVICE_WORKERS = 8

# -- building the world ---------------------------------------------------------


def new_web():
    """A freshly built simulated Web (what ``default_web()`` builds once per process)."""
    return SimulatedWeb()


def paper_database():
    """The paper's stored tables (States, Sigs, CSFields, Movies) in memory."""
    return load_all(Database())


def state_capitals(database):
    return {name: capital for name, _, capital in database.table("States").scan()}


def load_local_tables(database, orders, customers):
    """Create and fill ``Orders`` and indexed ``Customers``; returns the timings."""
    started = time.perf_counter()
    database.create_table(
        "Orders",
        [("Id", DataType.INT), ("State", DataType.STR),
         ("Amount", DataType.FLOAT), ("Qty", DataType.INT)],
    ).insert_many(orders)
    insert_s = time.perf_counter() - started
    database.create_table(
        "Customers",
        [("Id", DataType.INT), ("Name", DataType.STR), ("State", DataType.STR)],
    ).insert_many(customers)
    started = time.perf_counter()
    database.create_index("Customers", "Id")
    index_s = time.perf_counter() - started
    return {"insert_s": insert_s, "index_s": index_s}


def new_cache(capacity=None):
    return make_cache("memory", capacity=capacity)


def new_engine(database, web, latency=None, cache=None, single_flight=False, observed=False):
    """A ``WsqEngine`` with its own pump, so its counters are its alone.

    ``latency`` is ``(low, high, salt)`` or None; ``cache=None`` forces the
    cache off whatever ``REPRO_CACHE`` says.
    """
    return WsqEngine(
        database=database,
        web=web,
        latency=UniformLatency(*latency[:2], salt=latency[2]) if latency else None,
        cache=cache if cache is not None else False,
        pump=RequestPump(PumpLimits(), name="perf-pump", single_flight=single_flight),
        obs=Observability.enabled() if observed else None,
    )


def new_service(engine):
    return QueryService(
        engine,
        tenants=[TenantPolicy("gold", weight=3), TenantPolicy("silver", weight=1)],
        max_workers=SERVICE_WORKERS,
    )


def close(engine, service=None):
    if service is not None:
        service.close()
    engine.pump.shutdown()


# -- one query as the public calls the engine composes -----------------------------


class Pipeline:
    """``engine.execute`` decomposed, with a benchmark-side span around each layer."""

    def __init__(self, engine):
        self.engine = engine
        self.planner = Planner(
            engine.database, engine.vtables, options=engine.planner_options
        )

    def run(self, sql, log, query, asynchronous=True):
        """Returns ``(rows, batches)``; spans land in *log* under one ``query`` root."""
        engine = self.engine
        with log.span("query", query=query) as root:
            with log.span("sql.parse", root, query):
                select = parse_select(sql)
            with log.span("plan.bind", root, query):
                logical = self.planner.plan_logical(select)
            with log.span("plan.rules", root, query):
                logical, _ = self.planner.optimize(
                    logical, metrics=engine.metrics, cost_model=engine.cost_model
                )
            context = None
            if asynchronous and contains_external_scan(logical):
                with log.span("asynciter.rewrite", root, query):
                    context = AsyncContext(
                        engine.pump, dedup=engine.dedup_calls, query_id=query
                    )
                    logical, _ = rewrite_logical(
                        logical, engine.rewrite_settings,
                        metrics=engine.metrics, query_id=query,
                    )
            with log.span("plan.lower", root, query):
                plan = lower(logical, engine.exec_options(), context)
            with log.span("exec.drain", root, query):
                rows, batches = [], 0
                for batch in execute_batches(plan, engine.batch_size):
                    batches += 1
                    rows.extend(batch)
        return rows, batches


# -- counters read through public accessors ----------------------------------------


def pump_counts(engine):
    snapshot = engine.pump.stats.snapshot()
    return {key: snapshot[key] for key in ("registered", "coalesced", "max_in_flight")}


def pump_latencies(engine):
    """``{kind: {p50, p95}}`` over all destinations, weighted by their call counts."""
    merged = {}
    for kind in ("queue_wait", "service", "e2e"):
        summaries = [
            dest[kind] for dest in engine.pump.latencies().values() if kind in dest
        ]
        total = sum(s["count"] for s in summaries)
        if total:
            merged[kind] = {
                p: sum(s[p] * s["count"] for s in summaries) / total
                for p in ("p50", "p95")
            }
    return merged


def cache_counts(cache):
    stats = cache.detailed_stats()
    return {key: stats[key] for key in ("hits", "misses", "evictions")}


def buffer_counts(database):
    return database.buffer_stats()


def kernel_counts():
    return kernel_stats()


def service_counts(service):
    tenants = service.stats()["admission"]["tenants"].values()
    return {
        "shed": sum(t["shed"] for t in tenants),
        "failed": sum(t["failed"] for t in tenants),
        "expired": service.engine.metrics.counter_value("serve.expired"),
    }


# -- layer probes: fixed micro-measurements of single public calls ------------------


def _per_call_us(call, arguments):
    """Median microseconds of ``call(*args)`` over *arguments*."""
    samples = []
    for args in arguments:
        started = time.perf_counter()
        call(*args)
        samples.append(time.perf_counter() - started)
    samples.sort()
    return samples[len(samples) // 2] * 1e6


def probe_web(web, expressions):
    """Raw search-engine and client cost with no latency and no cache."""
    engine = web.engine("AV")
    client = SearchClient(engine)
    return {
        "web.engine_count_us": _per_call_us(engine.count, [(e,) for e in expressions]),
        "web.engine_search_us": _per_call_us(engine.search, [(e, 10) for e in expressions]),
        "web.client_call_us": _per_call_us(client.count, [(e,) for e in expressions]),
    }


def probe_cache_lookup(expressions):
    cache = new_cache()
    keys = [ResultCache.key("AV", "count", e) for e in expressions]
    for key in keys:
        cache.put(key, 1)
    return _per_call_us(cache.lookup, [(key,) for key in keys])


PIPELINE_ROWS = 12000


def probe_exec_pipeline():
    """Input rows per second through a hand-built scan -> filter(10%) -> join(8 rows)."""

    def scan(name, values):
        schema = Schema([Column("v", DataType.INT, name)])
        return RowsScan(schema, [(v,) for v in values], name=name)

    plan = NestedLoopJoin(
        Filter(
            scan("outer", range(PIPELINE_ROWS)),
            Comparison("<", ColumnRef(0), Literal(PIPELINE_ROWS // 10)),
        ),
        scan("inner", range(50, 58)),
        Comparison("=", ColumnRef(0), ColumnRef(1)),
    )
    started = time.perf_counter()
    rows = collect_batches(plan)
    elapsed = time.perf_counter() - started
    if sorted(rows) != [(v, v) for v in range(50, 58)]:
        raise AssertionError("exec pipeline probe returned wrong rows")
    return PIPELINE_ROWS / elapsed


def probe_scan(database, table_name):
    """Stored rows per second decoded by ``Table.scan_column_batches``."""
    started = time.perf_counter()
    rows = sum(len(columns[0]) for columns in database.table(table_name).scan_column_batches())
    return rows / (time.perf_counter() - started)
