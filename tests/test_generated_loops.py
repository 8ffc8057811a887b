"""Aggregate's generated accumulation loop and Sort's key passes, against
the code they replaced, frozen here as oracles.

``reference_aggregate`` is the ``_Accumulator`` loop of PR 23, verbatim
but for taking rows: keys and inputs through ``BoundExpr.eval`` a row at
a time (the order every batch size agrees on), one string-dispatching
accumulator per aggregate.  ``reference_sort`` is ``cmp_to_key`` over
``_compare_values``.
"""

import functools
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import Aggregate, AggregateSpec, RowsScan, Sort, TableScan, collect
from repro.exec.operator import collect_batches
from repro.relational.expr import BinaryOp, ColumnRef, Literal
from repro.relational.placeholder import Placeholder
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.storage import Database
from repro.util.errors import PlaceholderError
from repro.wsq import WsqEngine

INT, FLOAT = DataType.INT, DataType.FLOAT

# -- the frozen references ---------------------------------------------------------

_STAR = object()


class _Accumulator:
    def __init__(self, func):
        self.func = func
        self.count = 0
        self.total = 0
        self.best = None

    def add(self, value):
        if self.func == "COUNT":
            if value is not _STAR and value is None:
                return
            self.count += 1
            return
        if value is None:  # SQL aggregates skip NULLs
            return
        self.count += 1
        if self.func in ("SUM", "AVG"):
            self.total += value
        elif self.func == "MIN":
            self.best = value if self.best is None or value < self.best else self.best
        elif self.func == "MAX":
            self.best = value if self.best is None or value > self.best else self.best

    def result(self):
        if self.func == "COUNT":
            return self.count
        if self.count == 0:
            return None  # SUM/AVG/MIN/MAX of no rows is NULL
        if self.func == "SUM":
            return self.total
        if self.func == "AVG":
            return self.total / self.count
        return self.best


def reference_aggregate(rows, group_exprs, specs):
    groups, order = {}, []
    for row in rows:
        key = tuple(expr.eval(row) for expr in group_exprs)
        inputs = [_STAR if spec.star else spec.expr.eval(row) for spec in specs]
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = groups[key] = [_Accumulator(spec.func) for spec in specs]
            order.append(key)
        for accumulator, value in zip(accumulators, inputs):
            accumulator.add(value)
    if not group_exprs and not groups:
        groups[()] = [_Accumulator(spec.func) for spec in specs]
        order.append(())
    return [key + tuple(acc.result() for acc in groups[key]) for key in order]


def _compare_values(a, b):
    """SQL-ish comparison with NULLs last (ascending)."""
    if a is None and b is None:
        return 0
    if a is None:
        return 1
    if b is None:
        return -1
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def reference_sort(rows, keys):
    def compare(a, b):
        for expr, descending in keys:
            result = _compare_values(expr.eval(a), expr.eval(b))
            if result != 0:
                return -result if descending else result
        return 0

    return sorted(rows, key=functools.cmp_to_key(compare))


# -- Aggregate ---------------------------------------------------------------------

SCHEMA = Schema([Column("k", INT, "t"), Column("x", INT, "t"), Column("y", FLOAT, "t")])
K, X, Y = ColumnRef(0, "k"), ColumnRef(1, "x"), ColumnRef(2, "y")


def _out(group_exprs, specs):
    return Schema(
        [Column("c{}".format(i), None) for i in range(len(group_exprs) + len(specs))],
        allow_duplicates=True,
    )


def _aggregate(rows, group_exprs, specs, batch_size=None):
    plan = Aggregate(RowsScan(SCHEMA, rows), group_exprs, specs, _out(group_exprs, specs))
    if batch_size is not None:
        plan.batch_size = batch_size
    return collect(plan)


def _typed(results):
    return [[(type(v), v) for v in row] for row in results]


_SPECS = [
    AggregateSpec("COUNT", star=True),
    AggregateSpec("COUNT", X),
    AggregateSpec("SUM", X),
    AggregateSpec("AVG", X),
    AggregateSpec("MIN", Y),
    AggregateSpec("MAX", Y),
    AggregateSpec("SUM", BinaryOp("*", Y, X)),
]
_KEYS = [[], [K], [K, X], [BinaryOp("/", X, Literal(10))], [Literal(1)]]

_rows = st.lists(
    st.tuples(
        st.none() | st.integers(-2, 2),
        st.none() | st.integers(-30, 30),
        st.none() | st.sampled_from([-1.5, 0.0, 0.25, 2.0]),
    ),
    max_size=40,
)


class TestGeneratedLoopEqualsTheAccumulatorLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        _rows,
        st.sampled_from(_KEYS),
        st.lists(st.sampled_from(_SPECS), min_size=1, max_size=4),
        st.sampled_from([None, 1, 3]),
    )
    def test_property(self, rows, group_exprs, specs, batch_size):
        expected = reference_aggregate(rows, group_exprs, specs)
        assert _typed(_aggregate(rows, group_exprs, specs, batch_size)) == _typed(expected)

    def test_count_star_counts_nulls_and_count_x_does_not(self):
        rows = [(1, None, None), (1, 2, None), (1, None, 1.0)]
        specs = [AggregateSpec("COUNT", star=True), AggregateSpec("COUNT", X)]
        assert _aggregate(rows, [], specs) == reference_aggregate(rows, [], specs) == [(3, 1)]

    def test_no_non_null_input_is_null(self):
        rows = [(1, None, None), (2, None, None)]
        specs = [AggregateSpec(f, X) for f in ("SUM", "AVG", "MIN", "MAX", "COUNT")]
        assert _aggregate(rows, [K], specs) == [
            (1, None, None, None, None, 0), (2, None, None, None, None, 0),
        ]

    def test_avg_of_ints_is_true_division(self):
        rows = [(1, 1, None), (1, 2, None)]
        ((mean, total),) = _aggregate(rows, [], [AggregateSpec("AVG", X), AggregateSpec("SUM", X)])
        assert (mean, type(mean), total, type(total)) == (1.5, float, 3, int)

    def test_no_keys_and_no_input_column(self):
        # Nothing to zip: the loop runs over the row count alone.
        assert _aggregate([(1, 1, 1.0)] * 5, [], [AggregateSpec("COUNT", star=True)]) == [(5,)]
        engine = WsqEngine(database=Database())
        engine.database.create_table_from_rows("T", [("a", INT)], [(i,) for i in range(700)])
        assert engine.execute("Select Count(*) From T").rows == [(700,)]

    def test_no_keys_over_empty_input_emits_one_row(self):
        specs = [AggregateSpec("COUNT", star=True), AggregateSpec("SUM", X)]
        assert _aggregate([], [], specs) == reference_aggregate([], [], specs) == [(0, None)]
        assert _aggregate([], [K], specs) == []

    def test_first_seen_group_order(self):
        rows = [(k, 1, None) for k in (2, -1, 2, None, 0, -1, None)]
        result = _aggregate(rows, [K], [AggregateSpec("COUNT", star=True)], batch_size=2)
        assert result == [(2, 2), (-1, 2), (None, 2), (0, 1)]

    def test_equal_keys_of_different_types_collapse(self):
        schema = Schema([Column("k", None), Column("x", INT)])
        rows = [(1, 1), (1.0, 2), (True, 4), (2, 8)]
        total = AggregateSpec("SUM", ColumnRef(1))
        plan = Aggregate(RowsScan(schema, rows), [ColumnRef(0)], [total], _out([K], [total]))
        # The first spelling names the group, as a tuple key in a dict does.
        assert _typed(collect(plan)) == _typed([(1, 7), (2, 8)])

    def test_computed_key_and_input(self):
        rows = [(0, 5, 1.0), (0, 15, 2.0), (0, 19, 0.5), (0, 0, None)]
        group_exprs = [BinaryOp("/", X, Literal(10))]
        specs = [AggregateSpec("SUM", BinaryOp("*", Y, X))]
        expected = reference_aggregate(rows, group_exprs, specs)
        assert _aggregate(rows, group_exprs, specs) == expected
        assert expected == [(0.5, 5.0), (1.5, 30.0), (1.9, 9.5), (0.0, None)]

    @pytest.mark.parametrize("batch_size", [1, 256])
    def test_placeholder_in_a_key_or_an_input_raises_at_its_row(self, batch_size):
        pending = Placeholder(7, "count")
        specs = [AggregateSpec("SUM", X)]
        for rows, column in (
            ([(1, 2, None), (pending, 3, None)], "k"),
            ([(1, 2, None), (2, pending, None)], "x"),
        ):
            for attempt in (
                lambda: _aggregate(rows, [K], specs, batch_size),
                lambda: reference_aggregate(rows, [K], specs),
            ):
                with pytest.raises(PlaceholderError) as raised:
                    attempt()
                assert str(raised.value).startswith(
                    "{} evaluated over unresolved placeholder <?7:count>".format(column)
                )

    @pytest.mark.parametrize("batch_size", [1, 256])
    def test_of_two_bad_rows_the_first_row_is_reported_not_the_first_column(self, batch_size):
        # An accepted change (DESIGN.md §14): PR 23's Aggregate evaluated
        # every key of a batch, then every input, so with both rows in one
        # batch it reported row 1's key ``k``; one row to a batch it
        # reported row 0's input ``x``.  The loop walks rows, so row order
        # decides at every batch size — what the row-wise reference does.
        pending = Placeholder(7, "count")
        specs = [AggregateSpec("SUM", X)]
        rows = [(1, pending, None), (pending, 3, None)]
        with pytest.raises(PlaceholderError, match="^x evaluated"):
            _aggregate(rows, [K], specs, batch_size)
        with pytest.raises(PlaceholderError, match="^x evaluated"):
            reference_aggregate(rows, [K], specs)

    def test_typed_and_list_variants_of_one_column_in_one_query(self):
        # 98 rows to a page: the NULL on the second page degrades that
        # page's Amount vector to a list mid-scan; the others stay arrays.
        rows = [(i % 3, i, None if i == 150 else i / 4) for i in range(400)]
        table = Database().create_table_from_rows(
            "T", [("k", INT), ("x", INT), ("y", FLOAT)], rows
        )
        kinds = {type(vectors[2]) for vectors in table.scan_column_batches()}
        assert kinds == {array, list}
        specs = [AggregateSpec("SUM", Y), AggregateSpec("COUNT", Y), AggregateSpec("MAX", X)]
        for batch_size in (1, 64, 256):
            plan = Aggregate(TableScan(table), [K], specs, _out([K], specs))
            plan.batch_size = plan.child.batch_size = batch_size
            assert _typed(collect(plan)) == _typed(reference_aggregate(rows, [K], specs))


# -- Sort --------------------------------------------------------------------------

_sort_rows = st.lists(
    st.tuples(
        st.none() | st.integers(-2, 2),
        st.none() | st.integers(0, 3),
        st.none() | st.sampled_from([-1.5, 0.0, 2.0]),
    ),
    max_size=50,
)
_sort_keys = st.lists(
    st.tuples(st.sampled_from([K, X, Y, BinaryOp("+", X, Literal(1))]), st.booleans()),
    max_size=3,
)


class TestKeyPassesEqualTheComparator:
    @settings(max_examples=200, deadline=None)
    @given(_sort_rows, _sort_keys, st.sampled_from([None, 1, 7]))
    def test_property(self, rows, keys, batch_size):
        # Rows are told apart by their position, so a tie broken in
        # another order than arrival shows.
        rows = [row + (position,) for position, row in enumerate(rows)]
        schema = Schema(list(SCHEMA) + [Column("position", INT, "t")])
        plan = Sort(RowsScan(schema, rows), keys)
        assert collect_batches(plan, batch_size) == reference_sort(rows, keys)

    def test_mixed_directions_nulls_and_ties(self):
        rows = [
            (1, 2, 0.0), (None, 1, 0.0), (1, None, 1.0), (2, 2, 2.0), (1, 2, 3.0), (None, 1, 4.0),
        ]
        keys = [(K, True), (X, False)]
        assert collect(Sort(RowsScan(SCHEMA, rows), keys)) == reference_sort(rows, keys) == [
            (None, 1, 0.0), (None, 1, 4.0),  # NULLs first descending, ties in arrival order
            (2, 2, 2.0),
            (1, 2, 0.0), (1, 2, 3.0), (1, None, 1.0),  # NULLs last ascending
        ]

    def test_a_mixed_later_key_raises_even_where_earlier_keys_never_tie(self):
        # An accepted change (DESIGN.md §14): every key column is sorted
        # whole, so a str-vs-number mix in a second key is a TypeError
        # although the first key alone orders the rows — the comparator
        # never looked at the second key there, and returned them.
        schema = Schema([Column("a", None), Column("b", None)])
        rows, keys = [(2, "a"), (1, 3)], [(ColumnRef(0), False), (ColumnRef(1), False)]
        assert reference_sort(rows, keys) == [(1, 3), (2, "a")]
        with pytest.raises(TypeError):
            collect(Sort(RowsScan(schema, rows), keys))
        assert collect(Sort(RowsScan(schema, rows), keys[:1])) == [(1, 3), (2, "a")]

    def test_a_string_against_a_number_is_still_a_type_error(self):
        schema = Schema([Column("v", None)])
        with pytest.raises(TypeError):
            collect(Sort(RowsScan(schema, [(1,), ("a",)]), [(ColumnRef(0), False)]))
        with pytest.raises(TypeError):
            reference_sort([(1,), ("a",)], [(ColumnRef(0), False)])
