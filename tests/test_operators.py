"""Physical operator semantics."""

import pytest

from repro.exec import (
    Aggregate,
    AggregateSpec,
    CrossProduct,
    Distinct,
    Filter,
    Limit,
    NestedLoopJoin,
    Project,
    RowsScan,
    Sort,
    UnionAll,
    collect,
    execute,
)
from repro.relational.expr import BinaryOp, ColumnRef, Comparison, Literal
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.util.errors import ExecutionError


def int_scan(name, values):
    schema = Schema([Column("v", DataType.INT, name)])
    return RowsScan(schema, [(v,) for v in values], name=name)


def pair_scan(name, rows):
    schema = Schema(
        [Column("a", DataType.INT, name), Column("b", DataType.STR, name)]
    )
    return RowsScan(schema, rows, name=name)


class TestScans:
    def test_rows_scan(self):
        assert collect(int_scan("t", [1, 2, 3])) == [(1,), (2,), (3,)]

    def test_next_before_open(self):
        with pytest.raises(ExecutionError):
            int_scan("t", [1]).next()

    def test_reopen(self):
        scan = int_scan("t", [1, 2])
        assert collect(scan) == [(1,), (2,)]
        assert collect(scan) == [(1,), (2,)]

    def test_bindings_rejected(self):
        with pytest.raises(ExecutionError):
            int_scan("t", [1]).open({"T1": "x"})


class TestFilter:
    def test_keeps_matching(self):
        plan = Filter(int_scan("t", range(10)), Comparison(">", ColumnRef(0), Literal(6)))
        assert collect(plan) == [(7,), (8,), (9,)]

    def test_null_predicate_drops_row(self):
        scan = RowsScan(Schema([Column("v", DataType.INT)]), [(None,), (5,)])
        plan = Filter(scan, Comparison(">", ColumnRef(0), Literal(1)))
        assert collect(plan) == [(5,)]


class TestProject:
    def test_reorder_and_compute(self):
        scan = pair_scan("t", [(1, "x"), (2, "y")])
        schema = Schema([Column("b", DataType.STR), Column("a2", DataType.INT)], True)
        plan = Project(scan, [ColumnRef(1), BinaryOp("*", ColumnRef(0), Literal(2))], schema)
        assert collect(plan) == [("x", 2), ("y", 4)]


class TestJoins:
    def test_cross_product(self):
        plan = CrossProduct(int_scan("l", [1, 2]), int_scan("r", [10, 20]))
        assert collect(plan) == [(1, 10), (1, 20), (2, 10), (2, 20)]

    def test_cross_product_empty_side(self):
        assert collect(CrossProduct(int_scan("l", []), int_scan("r", [1]))) == []
        assert collect(CrossProduct(int_scan("l", [1]), int_scan("r", []))) == []

    def test_nested_loop_join(self):
        plan = NestedLoopJoin(
            int_scan("l", [1, 2, 3]),
            int_scan("r", [2, 3, 4]),
            Comparison("=", ColumnRef(0), ColumnRef(1)),
        )
        assert collect(plan) == [(2, 2), (3, 3)]

    def test_join_schema_concat(self):
        plan = NestedLoopJoin(
            pair_scan("l", []),
            pair_scan("r", []),
            Comparison("=", ColumnRef(0), ColumnRef(2)),
        )
        assert len(plan.schema) == 4

    def test_inner_reopened_per_outer(self):
        inner = int_scan("r", [1])
        plan = CrossProduct(int_scan("l", [1, 2, 3]), inner)
        assert len(collect(plan)) == 3


class TestSort:
    def test_ascending(self):
        plan = Sort(int_scan("t", [3, 1, 2]), [(ColumnRef(0), False)])
        assert collect(plan) == [(1,), (2,), (3,)]

    def test_descending(self):
        plan = Sort(int_scan("t", [3, 1, 2]), [(ColumnRef(0), True)])
        assert collect(plan) == [(3,), (2,), (1,)]

    def test_multi_key(self):
        scan = pair_scan("t", [(1, "b"), (2, "a"), (1, "a")])
        plan = Sort(scan, [(ColumnRef(0), False), (ColumnRef(1), False)])
        assert collect(plan) == [(1, "a"), (1, "b"), (2, "a")]

    def test_nulls_last_ascending(self):
        scan = RowsScan(Schema([Column("v", DataType.INT)]), [(None,), (1,), (2,)])
        plan = Sort(scan, [(ColumnRef(0), False)])
        assert collect(plan) == [(1,), (2,), (None,)]

    def test_stable_for_equal_keys(self):
        scan = pair_scan("t", [(1, "first"), (1, "second")])
        plan = Sort(scan, [(ColumnRef(0), False)])
        assert collect(plan) == [(1, "first"), (1, "second")]


class TestDistinctLimitUnion:
    def test_distinct(self):
        plan = Distinct(int_scan("t", [1, 2, 1, 3, 2]))
        assert collect(plan) == [(1,), (2,), (3,)]

    def test_limit(self):
        plan = Limit(int_scan("t", range(100)), 3)
        assert collect(plan) == [(0,), (1,), (2,)]

    def test_limit_zero(self):
        assert collect(Limit(int_scan("t", [1]), 0)) == []

    def test_limit_larger_than_input(self):
        assert len(collect(Limit(int_scan("t", [1, 2]), 10))) == 2

    def test_union_all(self):
        plan = UnionAll(int_scan("l", [1, 2]), int_scan("r", [2, 3]))
        assert collect(plan) == [(1,), (2,), (2,), (3,)]

    def test_union_arity_mismatch(self):
        with pytest.raises(ExecutionError, match="arity"):
            UnionAll(int_scan("l", []), pair_scan("r", []))

    def test_union_reopen(self):
        plan = UnionAll(int_scan("l", [1]), int_scan("r", [2]))
        assert collect(plan) == [(1,), (2,)]
        assert collect(plan) == [(1,), (2,)]


class TestAggregate:
    def make(self, rows, group=True):
        scan = pair_scan("t", rows)
        group_exprs = [ColumnRef(1)] if group else []
        specs = [
            AggregateSpec("COUNT", star=True),
            AggregateSpec("SUM", expr=ColumnRef(0)),
            AggregateSpec("AVG", expr=ColumnRef(0)),
            AggregateSpec("MIN", expr=ColumnRef(0)),
            AggregateSpec("MAX", expr=ColumnRef(0)),
        ]
        columns = ([Column("g", DataType.STR)] if group else []) + [
            Column("cnt", DataType.INT),
            Column("total", DataType.INT),
            Column("mean", DataType.FLOAT),
            Column("lo", DataType.INT),
            Column("hi", DataType.INT),
        ]
        return Aggregate(scan, group_exprs, specs, Schema(columns))

    def test_grouped(self):
        rows = [(1, "x"), (2, "x"), (10, "y")]
        assert collect(self.make(rows)) == [
            ("x", 2, 3, 1.5, 1, 2),
            ("y", 1, 10, 10.0, 10, 10),
        ]

    def test_global_aggregate_over_empty_input(self):
        result = collect(self.make([], group=False))
        assert result == [(0, None, None, None, None)]

    def test_grouped_over_empty_input(self):
        assert collect(self.make([])) == []

    def test_count_skips_nulls(self):
        scan = RowsScan(
            Schema([Column("v", DataType.INT)]), [(None,), (1,), (None,)]
        )
        plan = Aggregate(
            scan,
            [],
            [AggregateSpec("COUNT", expr=ColumnRef(0)), AggregateSpec("COUNT", star=True)],
            Schema([Column("c", DataType.INT), Column("n", DataType.INT)], True),
        )
        assert collect(plan) == [(1, 3)]

    def test_invalid_spec(self):
        from repro.util.errors import TypeMismatchError

        with pytest.raises(TypeMismatchError):
            AggregateSpec("MEDIAN", expr=ColumnRef(0))
        with pytest.raises(TypeMismatchError):
            AggregateSpec("SUM", star=True)


class TestExecuteHelper:
    def test_execute_closes_on_error(self):
        class Boom(RowsScan):
            def next_batch(self, max_rows=None):
                raise ExecutionError("boom")

        scan = Boom(Schema([Column("v", DataType.INT)]), [(1,)])
        with pytest.raises(ExecutionError):
            list(execute(scan))
        # close() resets position; reopening works fine afterwards
        scan.open()
        scan.close()
