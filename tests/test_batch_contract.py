"""The batch contract.

Every operator implements ``next_batch()`` only; ``next()`` is the base
class's one-row view of it.  At any batch size, and through either view,
an operator must produce exactly the rows of the tuple-at-a-time
schedule (the same plan at ``batch_size=1``), and must be re-openable
after ``close()`` — also when the previous run was abandoned
mid-stream.  These tests pin that contract down for the local
operators, for the external-table operators (EVScan/AEVScan/ReqSync —
including proliferation and cancellation), and for the batched
external-call registration chain (DependentJoin -> AEVScan.open_batch ->
AsyncContext.register -> RequestPump.register).
"""

import functools

import pytest

from repro.asynciter.aevscan import AEVScan
from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import RequestPump
from repro.asynciter.reqsync import ReqSync
from repro.exec import (
    Aggregate,
    AggregateSpec,
    ColumnBatch,
    CrossProduct,
    DependentJoin,
    Distinct,
    Filter,
    IndexScan,
    Limit,
    NestedLoopJoin,
    Project,
    RowsScan,
    Sort,
    TableScan,
    collect,
    collect_batches,
    open_plan,
    set_batch_size,
)
from repro.obs import Tracer
from repro.obs.trace import CALL_REGISTER, SYNC_WAIT
from repro.relational.expr import BinaryOp, ColumnRef, Comparison, Literal
from repro.relational.placeholder import Placeholder
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.storage import Database
from repro.util.errors import ExecutionError
from repro.vtables.base import ExternalCall
from repro.vtables.evscan import EVScan

BATCH_SIZES = [1, 2, 7, 256]


def collect_rows(plan, batch_size=None):
    """Drain *plan* through the inherited ``next()`` view.

    Takes *batch_size* only to be callable like ``collect_batches``:
    the view itself always pulls one row.
    """
    with open_plan(plan):
        return list(iter(plan.next, None))


#: The two consumer views of the one protocol: ColumnBatch chunks from
#: ``next_batch()`` and row tuples from the base-class ``next()``.
VIEWS = {"columnar": collect_batches, "row": collect_rows}


def reference_rows(plan):
    """The tuple-at-a-time schedule: every pull in the tree asks for 1 row."""
    return collect_batches(set_batch_size(plan, 1), 1)


SCHEMA_V = Schema([Column("v", DataType.INT)], allow_duplicates=True)


class TestColumnBatch:
    def test_from_rows_to_rows_roundtrip(self):
        rows = [(1, "a"), (2, "b"), (3, "c")]
        schema = Schema([Column("v", DataType.INT), Column("s", DataType.STR)])
        batch = ColumnBatch.from_rows(schema, rows)
        assert len(batch) == 3
        assert batch.to_rows() == rows
        assert list(batch) == rows

    def test_int_column_gets_typed_storage(self):
        from array import array

        schema = Schema([Column("v", DataType.INT)], allow_duplicates=True)
        clean = ColumnBatch.from_rows(schema, [(1,), (2,)])
        assert isinstance(clean.column(0), array)
        dirty = ColumnBatch.from_rows(schema, [(1,), (None,)])
        assert isinstance(dirty.column(0), list)

    def test_selection_restricts_view(self):
        batch = ColumnBatch.from_rows(SCHEMA_V, [(1,), (2,), (3,), (4,)])
        narrowed = batch.narrow([0, 2])
        assert len(narrowed) == 2
        assert narrowed.to_rows() == [(1,), (3,)]
        assert list(narrowed.column(0)) == [1, 3]

    def test_narrow_of_narrow_composes_flat(self):
        batch = ColumnBatch.from_rows(
            SCHEMA_V, [(10,), (11,), (12,), (13,), (14,), (15,)]
        )
        first = batch.narrow([1, 3, 4, 5])
        second = first.narrow([0, 2, 3])
        assert second.data is batch.data  # shared column buffers
        assert second.selection == [1, 4, 5]
        assert second.to_rows() == [(11,), (14,), (15,)]

    def test_dense_column_is_zero_copy(self):
        batch = ColumnBatch.from_rows(SCHEMA_V, [(1,), (2,)])
        assert batch.column(0) is batch.data[0]

    def test_empty_selection(self):
        batch = ColumnBatch.from_rows(SCHEMA_V, [(1,), (2,)]).narrow([])
        assert len(batch) == 0
        assert batch.to_rows() == []

    def test_zero_width_batch(self):
        batch = ColumnBatch(Schema([]), [], 4)
        assert len(batch) == 4
        assert batch.to_rows() == [(), (), (), ()]


# ---------------------------------------------------------------------------
# Local operators: either view == the batch_size=1 schedule, re-openable
# ---------------------------------------------------------------------------


def int_scan(name, values):
    schema = Schema([Column("v", DataType.INT, name)])
    return RowsScan(schema, [(v,) for v in values], name=name)


def pair_scan(name, rows):
    schema = Schema(
        [Column("a", DataType.INT, name), Column("b", DataType.STR, name)]
    )
    return RowsScan(schema, rows, name=name)


def _filter_plan():
    return Filter(
        int_scan("t", range(50)), Comparison(">", ColumnRef(0), Literal(30))
    )


def _filter_all_pass_plan():
    return Filter(int_scan("t", range(20)), Comparison(">=", ColumnRef(0), Literal(0)))


def _filter_none_pass_plan():
    return Filter(int_scan("t", range(20)), Comparison("<", ColumnRef(0), Literal(0)))


def _project_plan():
    schema = Schema([Column("b", DataType.STR), Column("a2", DataType.INT)], True)
    return Project(
        pair_scan("t", [(i, chr(97 + i % 5)) for i in range(30)]),
        [ColumnRef(1), BinaryOp("*", ColumnRef(0), Literal(2))],
        schema,
    )


def _sort_plan():
    return Sort(int_scan("t", [5, 3, 9, 1, 7, 3, 8]), [(ColumnRef(0), False)])


def _distinct_plan():
    return Distinct(int_scan("t", [i % 4 for i in range(40)]))


def _aggregate_plan():
    scan = pair_scan("t", [(i, chr(97 + i % 3)) for i in range(25)])
    return Aggregate(
        scan,
        [ColumnRef(1)],
        [AggregateSpec("COUNT", star=True), AggregateSpec("SUM", expr=ColumnRef(0))],
        Schema(
            [
                Column("g", DataType.STR),
                Column("cnt", DataType.INT),
                Column("total", DataType.INT),
            ]
        ),
    )


def _limit_plan():
    return Limit(int_scan("t", range(100)), 9)


def _cross_plan():
    return CrossProduct(int_scan("l", range(6)), int_scan("r", range(10, 15)))


def _nlj_plan():
    return NestedLoopJoin(
        int_scan("l", range(12)),
        int_scan("r", range(5, 20)),
        Comparison("=", ColumnRef(0), ColumnRef(1)),
    )


@functools.lru_cache(maxsize=None)
def _stored():
    """``(table, index on id)`` over a multi-page heap (built once, read-only)."""
    db = Database()
    table = db.create_table_from_rows(
        "People",
        [("id", DataType.INT), ("tag", DataType.STR)],
        [(i, "tag-{:03d}".format(i % 17)) for i in range(600)],
    )
    return table, db.create_index("People", "id")


def _table_scan_plan():
    return TableScan(_stored()[0])


def _index_scan_plan():
    table, index = _stored()
    return IndexScan(table, index, low=40, high=460)


def _dependent_join_plan():
    # EVScan has no open_batch: the looped (one outer row per pull) path,
    # with a proliferating ('k2') and a cancelling ('k3') binding.  The
    # plan owns its pump, whose thread runs only while a call is out.
    context = AsyncContext(RequestPump(), dedup=False)
    return DependentJoin(_outer_scan(), EVScan(FakeInstance(RESULTS), context), {"T1": 0})


def _nlj_fanout_plan():
    # Several matches per outer row: the hash probe's pending buffer
    # spans pulls whenever the caller's limit is smaller than a match run.
    return NestedLoopJoin(
        int_scan("l", range(6)),
        int_scan("r", [i % 3 for i in range(12)]),
        Comparison("=", ColumnRef(0), ColumnRef(1)),
    )


def _nlj_theta_plan():
    # Not an equi-join: the selection-over-cross-product strategy.
    return NestedLoopJoin(
        int_scan("l", range(8)),
        int_scan("r", range(8)),
        Comparison("<", ColumnRef(0), ColumnRef(1)),
    )


PLAN_FACTORIES = {
    "filter": _filter_plan,
    "filter_all_pass": _filter_all_pass_plan,
    "filter_none_pass": _filter_none_pass_plan,
    "project": _project_plan,
    "sort": _sort_plan,
    "distinct": _distinct_plan,
    "aggregate": _aggregate_plan,
    "limit": _limit_plan,
    "cross": _cross_plan,
    "nlj": _nlj_plan,
    "nlj_fanout": _nlj_fanout_plan,
    "nlj_theta": _nlj_theta_plan,
    "table_scan": _table_scan_plan,
    "index_scan": _index_scan_plan,
    "dependent_join": _dependent_join_plan,
}


@pytest.mark.parametrize("factory", PLAN_FACTORIES.values(), ids=PLAN_FACTORIES.keys())
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("view", VIEWS)
class TestLocalOperatorEquivalence:
    def test_batch_path_matches_row_path(self, factory, batch_size, view):
        expected = reference_rows(factory())
        plan = set_batch_size(factory(), batch_size)
        assert VIEWS[view](plan, batch_size) == expected

    def test_reopen_after_close_both_protocols(self, factory, batch_size, view):
        plan = set_batch_size(factory(), batch_size)
        other = "row" if view == "columnar" else "columnar"
        first = VIEWS[view](plan, batch_size)
        assert first == reference_rows(factory())
        # Abandon a run mid-stream (one pull, then close): whatever the
        # operator buffered for its next pull must not leak into the
        # re-opened run, which starts over at the first row...
        with open_plan(plan):
            if view == "row":
                plan.next()
            else:
                plan.next_batch(batch_size)
        # ...through the other view, and through this one again.
        assert VIEWS[other](plan, batch_size) == first
        assert VIEWS[view](plan, batch_size) == first


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class TestBatchProtocolEdges:
    def test_only_operator_defines_next(self):
        # One native protocol: every operator under src/repro inherits
        # the row view instead of hand-writing a second iteration path.
        import importlib
        import pkgutil

        import repro
        from repro.exec import Operator

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        operators = [
            cls
            for cls in _all_subclasses(Operator)
            if cls.__module__.startswith("repro.")
        ]
        # The walk reached every layer that defines operators...
        assert {"TableScan", "EVScan", "AEVScan", "ReqSync"} <= {
            cls.__name__ for cls in operators
        }
        # ...and none of them overrides the inherited row view.
        assert [cls.__name__ for cls in operators if "next" in vars(cls)] == []

    def test_never_returns_empty_batch(self):
        plan = set_batch_size(_filter_none_pass_plan(), 4)
        plan.open()
        try:
            assert plan.next_batch(4) is None
        finally:
            plan.close()

    def test_max_rows_is_respected(self):
        plan = int_scan("t", range(100))
        plan.open()
        try:
            while True:
                batch = plan.next_batch(7)
                if batch is None:
                    break
                assert 1 <= len(batch) <= 7
        finally:
            plan.close()

    def test_set_batch_size_rejects_nonpositive(self):
        with pytest.raises(ExecutionError, match="batch_size"):
            set_batch_size(int_scan("t", [1]), 0)

    def test_limit_closes_child_subtree_early(self):
        scan = int_scan("t", range(1000))
        closes = []
        original_close = scan.close
        scan.close = lambda: (closes.append(True), original_close())
        plan = Limit(scan, 3)
        plan.open()
        try:
            assert [plan.next() for _ in range(3)] == [(0,), (1,), (2,)]
            # Hitting the limit proactively closed the child...
            assert closes
            assert plan.next() is None
        finally:
            plan.close()  # ...and closing again stays idempotent
        assert collect(plan) == [(0,), (1,), (2,)]  # and it re-opens fine

    def test_limit_closes_child_on_batch_path(self):
        scan = int_scan("t", range(1000))
        closes = []
        original_close = scan.close
        scan.close = lambda: (closes.append(True), original_close())
        plan = Limit(scan, 5)
        assert collect_batches(plan, 2) == [(i,) for i in range(5)]
        assert len(closes) >= 1

    @pytest.mark.parametrize("batch_size", [None, 1], ids=["default", "batch1"])
    @pytest.mark.parametrize(
        "sql,expected",
        [
            # Hash equi-join above the dependent join: the probe must pull
            # its outer side with the caller's limit (it used to pull a
            # full batch_size, i.e. one request per state: 50, not 1).
            (
                "Select S.Name, Count, Pop From States S, WebCount, Caps C "
                "Where S.Name = T1 and C.Name = S.Name Limit 1",
                {"AV": 1, "Google": 0},
            ),
            # Chained dependent joins (Template-3 shape): the looped path
            # takes one outer row per pull, so one request per engine.
            (
                "Select S.Name, AV.URL, G.URL "
                "From States S, WebPages_AV AV, WebPages_Google G "
                "Where S.Name = AV.T1 and S.Name = G.T1 "
                "and AV.Rank <= 2 and G.Rank <= 2 Limit 1",
                {"AV": 1, "Google": 1},
            ),
        ],
        ids=["hash_join", "chained_dependent_joins"],
    )
    def test_sync_limit_issues_no_unneeded_requests(
        self, web, paper_db, sql, expected, batch_size
    ):
        from repro.wsq import WsqEngine

        paper_db.create_table_from_rows(
            "Caps",
            [("Name", DataType.STR), ("Pop", DataType.INT)],
            [(name, population) for name, population, _ in paper_db.table("States").scan()],
        )
        engine = WsqEngine(database=paper_db, web=web, batch_size=batch_size, cache=False)
        assert len(engine.execute(sql, mode="sync").rows) == 1
        sent = {name: client.requests_sent for name, client in engine.clients.items()}
        assert sent == expected


class TestMaterializingOperatorsCloseTheirChild:
    """Sort and Aggregate drain their child inside ``open``.  When the
    drain raises (a ReqSync below it whose query's deadline expired),
    the child is closed all the same, so a ReqSync under it cancels its
    outstanding calls instead of leaving them out until they land."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda child: Sort(child, [(ColumnRef(0), False)]),
            lambda child: Aggregate(
                child,
                [],
                [AggregateSpec("COUNT", star=True)],
                Schema([Column("cnt", DataType.INT)]),
            ),
        ],
        ids=["sort", "aggregate"],
    )
    def test_a_failed_drain_closes_the_child(self, build):
        closed = []

        class FailingScan(RowsScan):
            def next_batch(self, max_rows=None):
                raise ExecutionError("drain failed")

            def close(self):
                closed.append(self)
                super().close()

        child = FailingScan(Schema([Column("v", DataType.INT, "t")]), [(1,)], name="t")
        with pytest.raises(ExecutionError, match="drain failed"):
            with open_plan(build(child)):
                pass
        assert closed == [child]


# ---------------------------------------------------------------------------
# External-table operators: fake virtual table + real pump
# ---------------------------------------------------------------------------


class FakeInstance:
    """Minimal VTableInstance duck type: input T1 -> rows from a mapping.

    ``results[t1]`` is the list of result dicts the external call returns
    — several dicts exercise proliferation, an empty list cancellation.
    """

    def __init__(self, results, delay=0.0):
        self.results = dict(results)
        self.delay = delay
        self.schema = Schema(
            [Column("T1", DataType.STR), Column("Value", DataType.INT)],
            allow_duplicates=True,
        )
        self.result_fields = {"Value": "value"}

    def resolve_bindings(self, join_bindings):
        return dict(join_bindings or {})

    def make_call(self, bindings):
        rows = self.results[bindings["T1"]]
        delay = self.delay

        def run(attempt=0):
            if delay:
                yield delay
            return rows

        return ExternalCall(("fake", bindings["T1"]), "AV", run)

    def placeholder_row(self, bindings, call_id):
        return (bindings["T1"], Placeholder(call_id, "value"))

    def complete_rows(self, bindings, result_rows):
        return [(bindings["T1"], r["value"]) for r in result_rows]

    def describe(self):
        return "Fake"


OUTER_SCHEMA = Schema([Column("Name", DataType.STR)], allow_duplicates=True)

#: keys 'k2' proliferates (3 rows), 'k3' cancels (0 rows).
RESULTS = {
    "k0": [{"value": 10}],
    "k1": [{"value": 11}],
    "k2": [{"value": 20}, {"value": 21}, {"value": 22}],
    "k3": [],
    "k4": [{"value": 40}],
    "k5": [{"value": 50}],
}

#: DependentJoin output is outer ++ inner: (Name, T1, Value).
EXPECTED_ROWS = sorted(
    (key, key, r["value"]) for key, rows in RESULTS.items() for r in rows
)


@pytest.fixture()
def pump():
    p = RequestPump()
    yield p
    p.shutdown()


def _outer_scan():
    return RowsScan(OUTER_SCHEMA, [(k,) for k in sorted(RESULTS)], name="outer")


def _async_plan(pump, delay=0.0, tracer=None):
    context = AsyncContext(pump, tracer=tracer, query_id=0)
    scan = AEVScan(FakeInstance(RESULTS, delay=delay), context)
    join = DependentJoin(_outer_scan(), scan, {"T1": 0})
    sync = ReqSync(join, context, wait_timeout=5)
    return sync, scan


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
class TestExternalEquivalence:
    @pytest.mark.parametrize("view", VIEWS)
    def test_async_batch_path_matches_row_path(self, pump, batch_size, view):
        plan, _ = _async_plan(pump)
        set_batch_size(plan, batch_size)
        assert sorted(VIEWS[view](plan, batch_size)) == EXPECTED_ROWS

    def test_reqsync_reopen_after_close(self, pump, batch_size):
        plan, _ = _async_plan(pump)
        set_batch_size(plan, batch_size)
        first = sorted(collect_batches(plan, batch_size))
        # Abandoned mid-stream: close() cancels what is still pending and
        # the next open registers and patches everything afresh.
        with open_plan(plan):
            plan.next_batch(batch_size)
        second = sorted(collect_batches(plan, batch_size))
        assert first == second == EXPECTED_ROWS

    def test_evscan_batch_path_matches_row_path(self, pump, batch_size):
        # EVScan has no open_batch: the dependent join falls back to the
        # looped path, which must still match the tuple-at-a-time
        # schedule exactly.
        def make_plan():
            scan = EVScan(FakeInstance(RESULTS), AsyncContext(pump, dedup=False))
            return DependentJoin(_outer_scan(), scan, {"T1": 0})

        expected = reference_rows(make_plan())
        plan = set_batch_size(make_plan(), batch_size)
        assert collect_batches(plan, batch_size) == expected
        assert sorted(expected) == EXPECTED_ROWS

    def test_aevscan_reopen_after_close(self, pump, batch_size):
        context = AsyncContext(pump)
        scan = AEVScan(FakeInstance(RESULTS), context)
        for _ in range(2):
            scan.open({"T1": "k0"})
            batch = scan.next_batch(batch_size)
            assert len(batch) == 1
            assert scan.next_batch(batch_size) is None
            scan.close()
        assert scan.calls_registered == 2


class TestBatchedRegistration:
    """The tentpole's external-call chain, observed through the trace."""

    def _traced_run(self, pump_tracer, batch_size, delay=0.02):
        pump = RequestPump(tracer=pump_tracer)
        try:
            plan, scan = _async_plan(
                pump, delay=delay, tracer=pump_tracer
            )
            set_batch_size(plan, batch_size)
            rows = sorted(collect_batches(plan, batch_size))
            pump.quiesce()
        finally:
            pump.shutdown()
        return rows, scan

    def test_whole_batch_registered_before_first_wait(self):
        tracer = Tracer()
        rows, scan = self._traced_run(tracer, batch_size=256)
        assert rows == EXPECTED_ROWS
        events = tracer.events()
        register_idx = [
            i for i, e in enumerate(events) if e.name == CALL_REGISTER
        ]
        wait_idx = [i for i, e in enumerate(events) if e.name == SYNC_WAIT]
        assert len(register_idx) == len(RESULTS)
        assert wait_idx, "ReqSync should have waited on the delayed calls"
        # Every registration precedes the first wait: the pump gets the
        # whole frontier before the consumer ever blocks.
        assert max(register_idx) < min(wait_idx)

    def test_register_events_carry_batch_size(self):
        tracer = Tracer()
        self._traced_run(tracer, batch_size=256)
        registers = tracer.events(name=CALL_REGISTER)
        assert registers
        assert all(e.args.get("batch") == len(RESULTS) for e in registers)

    def test_batch_one_keeps_seed_registration_shape(self):
        tracer = Tracer()
        rows, scan = self._traced_run(tracer, batch_size=1)
        assert rows == EXPECTED_ROWS
        registers = tracer.events(name=CALL_REGISTER)
        assert len(registers) == len(RESULTS)
        # One binding per burst: the same route, a batch of one.
        assert all(e.args["batch"] == 1 for e in registers)

    def test_intra_batch_dedup(self, pump):
        # Duplicate outer values must collapse to one external call even
        # when the whole batch registers in one burst.
        context = AsyncContext(pump)
        outer = RowsScan(
            OUTER_SCHEMA, [("k0",), ("k1",), ("k0",), ("k0",)], name="outer"
        )
        scan = AEVScan(FakeInstance(RESULTS), context)
        join = DependentJoin(outer, scan, {"T1": 0})
        plan = set_batch_size(ReqSync(join, context, wait_timeout=5), 256)
        rows = sorted(collect_batches(plan, 256))
        assert rows == [
            ("k0", "k0", 10),
            ("k0", "k0", 10),
            ("k0", "k0", 10),
            ("k1", "k1", 11),
        ]
        assert context.dedup_hits == 2
        assert context.calls_registered == 2

    def test_engine_wide_equivalence(self, web, paper_db):
        # Full query results identical across mode x batch_size —
        # ORDER BY, aggregation, DISTINCT, proliferation (WebPages
        # returns several rows per call) and cancellation included.
        from repro.wsq import WsqEngine

        queries = [
            # ORDER BY + proliferating WebPages calls.
            "Select Name, URL, Rank From Sigs, WebPages "
            "Where Name = T1 and Rank <= 3 Order By Name, Rank",
            # Aggregation over external counts.
            "Select Count(*) From Sigs, WebPages Where Name = T1 and Rank <= 3",
            # DISTINCT + ORDER BY.
            "Select Distinct Count From States, WebCount "
            "Where Name = T1 Order By Count Desc",
        ]
        for sql in queries:
            results = {}
            for mode in ("sync", "async"):
                for batch_size in (1, None):
                    engine = WsqEngine(
                        database=paper_db, web=web, batch_size=batch_size
                    )
                    results[(mode, batch_size)] = engine.execute(
                        sql, mode=mode
                    ).rows
            baseline = results[("sync", 1)]
            assert all(rows == baseline for rows in results.values()), sql

    def test_register_dedups_against_in_flight(self, pump):
        context = AsyncContext(pump)
        instance = FakeInstance(RESULTS, delay=0.2)
        (first,) = context.register([instance.make_call({"T1": "k0"})])
        ids = context.register(
            [instance.make_call({"T1": t}) for t in ("k0", "k1")]
        )
        assert ids[0] == first  # reused the in-flight call
        assert ids[1] != first
        assert context.dedup_hits == 1
