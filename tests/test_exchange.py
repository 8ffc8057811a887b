"""Exchange / MergeExchange: intra-query parallelism must be invisible.

The Exchange operator fans partition subtrees over worker threads but
keeps the Volcano contract of the subtree it replaced: partition-major
emission over contiguous page ranges equals the sequential scan order,
so any plan with an Exchange produces byte-identical rows to its
``parallelism=1`` twin.  MergeExchange adds an order-preserving k-way
merge so a global Sort can run as per-partition sorts.
"""

import threading

import pytest

from repro.datasets import load_all
from repro.exec import (
    Exchange,
    Filter,
    Limit,
    MergeExchange,
    RowsScan,
    Sort,
    TableScan,
    collect,
    set_batch_size,
)
from repro.exec.exchange import default_parallelism
from repro.relational.expr import ColumnRef, Comparison, Literal
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.storage import Database
from repro.util.errors import ExecutionError, ReproError
from repro.wsq import WsqEngine

ROWS = [(i, "name-{:03d}".format(i % 17)) for i in range(500)]


@pytest.fixture(scope="module")
def table():
    db = Database()
    return db.create_table_from_rows(
        "People", [("id", DataType.INT), ("tag", DataType.STR)], ROWS
    )


def _partition_scans(table, workers):
    return [
        TableScan(table, partition=(index, workers)) for index in range(workers)
    ]


def int_scan(values):
    schema = Schema([Column("v", DataType.INT, "t")])
    return RowsScan(schema, [(v,) for v in values], name="t")


class TestExchange:
    @pytest.mark.parametrize("workers", (1, 2, 3, 8))
    def test_equals_sequential_scan(self, table, workers):
        plan = Exchange(_partition_scans(table, workers))
        assert collect(plan) == collect(TableScan(table))

    def test_equal_at_small_batch_size(self, table):
        # 7 divides neither a page nor a partition: every worker batch is
        # re-chunked through the pending-rows buffer.
        plan = Exchange(_partition_scans(table, 4))
        set_batch_size(plan, 7)
        assert collect(plan) == ROWS

    def test_reopen_after_close(self, table):
        plan = Exchange(_partition_scans(table, 3))
        assert collect(plan) == ROWS
        assert collect(plan) == ROWS
        assert plan._workers is None  # no threads survive close

    def test_limit_early_close_leaks_no_workers(self, table):
        before = threading.active_count()
        plan = Limit(Exchange(_partition_scans(table, 4)), 5)
        assert collect(plan) == ROWS[:5]
        for _ in range(50):
            if threading.active_count() <= before:
                break
            threading.Event().wait(0.01)
        assert threading.active_count() <= before

    def test_filter_partitions(self, table):
        predicate = Comparison("<", ColumnRef(0), Literal(10))
        plan = Exchange(
            [Filter(scan, predicate) for scan in _partition_scans(table, 4)]
        )
        assert collect(plan) == ROWS[:10]

    def test_requires_a_partition(self):
        with pytest.raises(ExecutionError):
            Exchange([])

    def test_rejects_bindings(self, table):
        with pytest.raises(ExecutionError):
            Exchange(_partition_scans(table, 2)).open({"T1": "x"})

    def test_worker_error_propagates_and_shuts_down(self):
        class Exploding(RowsScan):
            def next_batch(self, max_rows=None):
                raise ExecutionError("boom in worker")

        bad = Exploding(int_scan([1]).schema, [(1,)], name="t")
        plan = Exchange([int_scan(range(20)), bad])
        plan.open()
        try:
            with pytest.raises(ExecutionError, match="boom in worker"):
                while plan.next_batch(4) is not None:
                    pass
        finally:
            plan.close()
        assert plan._workers is None

    def test_label(self, table):
        assert Exchange(_partition_scans(table, 3)).label() == (
            "Exchange: 3 partitions"
        )


class TestMergeExchange:
    def _keys(self, descending=False):
        return [(ColumnRef(0), descending)]

    def test_global_order_with_duplicates(self):
        parts = [
            int_scan([1, 1, 4, 9]),
            int_scan([1, 2, 4, 4]),
            int_scan([0, 1, 9]),
        ]
        plan = MergeExchange(parts, self._keys())
        values = [row[0] for row in collect(plan)]
        assert values == sorted(values)
        assert len(values) == 11

    def test_ties_break_on_earlier_partition(self):
        schema = Schema(
            [Column("v", DataType.INT, "t"), Column("src", DataType.STR, "t")]
        )
        parts = [
            RowsScan(schema, [(1, "p0"), (2, "p0")], name="t"),
            RowsScan(schema, [(1, "p1"), (2, "p1")], name="t"),
        ]
        plan = MergeExchange(parts, self._keys())
        assert collect(plan) == [(1, "p0"), (1, "p1"), (2, "p0"), (2, "p1")]

    def test_descending(self):
        parts = [int_scan([9, 4, 1]), int_scan([8, 2])]
        plan = MergeExchange(parts, self._keys(descending=True))
        assert [row[0] for row in collect(plan)] == [9, 8, 4, 2, 1]

    def test_equals_global_sort(self, table):
        keys = [(ColumnRef(1), False)]
        plan = MergeExchange(
            [Sort(scan, keys) for scan in _partition_scans(table, 4)], keys
        )
        assert collect(plan) == collect(Sort(TableScan(table), keys))

    def test_label(self):
        plan = MergeExchange([int_scan([1])], self._keys())
        assert plan.label() == "MergeExchange: t.v (1 partitions)"


class TestLowering:
    SQL_SCAN = "Select Name From States Where Population > 1000000"
    SQL_SORT = "Select Name, Population From States Order By Population Desc"
    SQL_JOIN = (
        "Select S.Name From States S, States T Where S.Name = T.Capital"
    )

    @pytest.fixture(scope="class")
    def shared_db(self):
        return load_all(Database())

    def _explain(self, shared_db, sql, **kwargs):
        return WsqEngine(database=shared_db, cache=False, **kwargs).explain(
            sql, form="physical"
        )

    def test_parallelism_one_is_byte_identical(self, shared_db):
        for sql in (self.SQL_SCAN, self.SQL_SORT, self.SQL_JOIN):
            assert self._explain(shared_db, sql, parallelism=1) == self._explain(
                shared_db, sql
            )

    def test_scan_chain_fans_out(self, shared_db):
        plan = self._explain(shared_db, self.SQL_SCAN, parallelism=3)
        assert "Exchange: 3 partitions" in plan
        assert "[partition 2/3]" in plan

    def test_sort_lowers_to_merge_exchange(self, shared_db):
        plan = self._explain(shared_db, self.SQL_SORT, parallelism=2)
        assert "MergeExchange" in plan
        assert plan.count("Sort:") == 2  # one per partition, none global

    def test_join_right_side_stays_sequential(self, shared_db):
        plan = self._explain(shared_db, self.SQL_JOIN, parallelism=2)
        lines = plan.splitlines()
        exchanges = [line for line in lines if "Exchange" in line]
        assert len(exchanges) == 1  # outer side only; inner re-opens per row
        assert lines.index(exchanges[0]) < len(lines) - 1

    @pytest.mark.parametrize("sql", (SQL_SCAN, SQL_SORT, SQL_JOIN))
    @pytest.mark.parametrize("workers", (2, 5))
    def test_parallel_results_match_sequential(self, shared_db, sql, workers):
        sequential = WsqEngine(database=shared_db, cache=False)
        parallel = WsqEngine(
            database=shared_db, cache=False, parallelism=workers
        )
        assert (
            parallel.execute(sql, mode="sync").rows
            == sequential.execute(sql, mode="sync").rows
        )

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLELISM", raising=False)
        assert default_parallelism() == 1
        monkeypatch.setenv("REPRO_PARALLELISM", "6")
        assert default_parallelism() == 6
        monkeypatch.setenv("REPRO_PARALLELISM", "-2")
        with pytest.raises(ReproError):
            default_parallelism()
