"""A selection fused into the page decoder ≡ the Filter it replaced.

``Filter(TableScan(table), p)`` is the oracle: same rows, same order,
whatever the record layout, wherever NULLs, tombstones and empty pages
fall.  What the emitter cannot prove harmless stays a ``Filter`` and
raises what it raised before.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asynciter.aevscan import AEVScan
from repro.exec import Filter, Limit, RowsScan, TableScan, collect
from repro.plan import logical as L
from repro.plan.physical import lower
from repro.relational.expr import (
    BinaryOp,
    ColumnRef,
    Comparison,
    Conjunction,
    Disjunction,
    LikePredicate,
    Literal,
    Negation,
)
from repro.relational.placeholder import Placeholder
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.storage import Database, page
from repro.storage.page import PageWriter
from repro.storage.serialization import _decoder, page_decoder
from repro.util import codegen
from repro.util.errors import PlaceholderError, StorageError, TypeMismatchError
from repro.wsq import WsqEngine

INT, FLOAT, BOOL, STR, DATE = (
    DataType.INT, DataType.FLOAT, DataType.BOOL, DataType.STR, DataType.DATE,
)

#: 0, 1 and 2 strings; a tested column before, between and after them.
LAYOUTS = [
    (INT, FLOAT, BOOL),
    (INT, STR, FLOAT, INT),
    (STR, INT, BOOL),
    (INT, BOOL, DATE),
    (FLOAT, STR, INT, DATE, BOOL),
    (STR, DATE, INT),
]

_VALUES = {
    INT: st.integers(-5, 5),
    FLOAT: st.sampled_from([-1.5, 0.0, 0.5, 2.0, 3.25]),
    BOOL: st.booleans(),
    STR: st.sampled_from(["", "a", "Škofja Loka", "x" * 70]),
    DATE: st.sampled_from(["1999-10-01", "2000-01-01"]),
}
_FIXED = (INT, FLOAT, BOOL)


def _predicates(types):
    fixed = [i for i, t in enumerate(types) if t in _FIXED]
    column = st.sampled_from(fixed).map(lambda i: ColumnRef(i, "c{}".format(i)))
    literal = st.one_of(st.integers(-5, 5), _VALUES[FLOAT], st.booleans()).map(Literal)
    leaf = st.one_of(
        st.builds(
            Comparison,
            st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
            column,
            st.one_of(literal, column),
        ),
        st.sampled_from([i for i in fixed if types[i] is BOOL] or fixed[:1]).map(ColumnRef),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(Conjunction),
            st.lists(inner, min_size=1, max_size=3).map(Disjunction),
            inner.map(Negation),
        ),
        max_leaves=6,
    )


@st.composite
def tables_and_predicates(draw):
    types = draw(st.sampled_from(LAYOUTS))
    rows = draw(
        st.lists(
            st.tuples(*[st.none() | _VALUES[t] for t in types]), min_size=0, max_size=60
        )
    )
    deleted = draw(st.sets(st.integers(0, max(len(rows) - 1, 0)), max_size=len(rows)))
    if draw(st.booleans()):  # the whole first page tombstoned: an empty page
        deleted |= set(range(min(len(rows), 40)))
    columns = draw(st.none() | st.sets(st.integers(0, len(types) - 1)).map(sorted).map(tuple))
    return types, rows, deleted, columns, draw(_predicates(types))


def _table(types, rows, deleted=()):
    table = Database().create_table("T", [("c{}".format(i), t) for i, t in enumerate(types)])
    rids = table.insert_many(rows)
    for position in deleted:
        if position < len(rids):
            table.delete(rids[position])
    return table


class TestFusedEqualsUnfused:
    @settings(max_examples=150, deadline=None)
    @given(tables_and_predicates())
    def test_same_rows_in_the_same_order(self, drawn):
        types, rows, deleted, columns, predicate = drawn
        table = _table(types, rows, deleted)
        assert table.decoder(predicate=predicate) is not None
        expected = collect(Filter(TableScan(table), predicate))
        fused = collect(TableScan(table, predicate=predicate))
        assert fused == expected
        assert [type(v) for row in fused for v in row] == [
            type(v) for row in expected for v in row
        ]
        if columns is not None:
            kept = collect(TableScan(table, columns=columns, predicate=predicate))
            assert [tuple(row[i] for i in columns) for row in kept] == [
                tuple(row[i] for i in columns) for row in expected
            ]

    def test_a_page_of_nothing_but_tombstones_is_skipped(self):
        types = (INT, STR)
        rows = [(i, str(i).zfill(70)) for i in range(200)]  # distinct: no dictionary
        table = _table(types, rows, deleted=range(0, 60))
        predicate = Comparison("<", ColumnRef(0), Literal(100))
        groups = list(table.scan_column_batches((0,), predicate))
        assert all(len(vectors[0]) for vectors in groups)
        assert [v for vectors in groups for v in vectors[0]] == list(range(60, 100))


class TestNamedCases:
    TYPES = (INT, STR, FLOAT, INT)
    ROWS = [
        (1, "a", 1.0, 5),
        (2, None, None, None),  # the predicate is NULL here
        (3, "c", 3.0, 9),
        (None, "d", 4.0, 12),
    ]

    def test_count_star_keeps_no_column(self):
        table = _table(self.TYPES, self.ROWS)
        predicate = Comparison(">=", ColumnRef(3), Literal(9))
        (vectors,) = table.scan_column_batches((), predicate)
        assert vectors == [[None, None]] * 4
        engine = WsqEngine(database=Database())
        engine.database.create_table_from_rows(
            "T", [("c{}".format(i), t) for i, t in enumerate(self.TYPES)], self.ROWS
        )
        assert engine.execute("Select Count(*) From T Where c3 >= 9").rows == [(2,)]
        plan = engine.plan("Select Count(*) From T Where c3 >= 9", mode="sync")
        while not isinstance(plan, TableScan):
            (plan,) = plan.children
        assert plan.label() == "Scan: T where T.c3 >= 9" and plan.columns == ()

    def test_predicate_only_columns_are_not_in_the_output_vectors(self):
        table = _table(self.TYPES, self.ROWS)
        predicate = Comparison(">", ColumnRef(3), Literal(4))
        (vectors,) = table.scan_column_batches((0, 1), predicate)
        assert vectors == [[1, 3, None], ["a", "c", "d"], [None] * 3, [None] * 3]

    def test_a_predicate_that_is_null_on_a_row_drops_it(self):
        table = _table(self.TYPES, self.ROWS)
        for predicate in (
            Comparison("<", ColumnRef(3), Literal(100)),
            Negation(Comparison(">", ColumnRef(3), Literal(100))),
        ):
            assert [r[0] for r in collect(TableScan(table, predicate=predicate))] == [1, 3, None]

    def test_not_and_or_over_a_null(self):
        table = _table(self.TYPES, self.ROWS)
        null_or_true = Disjunction(
            [Comparison(">", ColumnRef(3), Literal(0)), Comparison("=", ColumnRef(0), Literal(2))]
        )
        assert [r[0] for r in collect(TableScan(table, predicate=null_or_true))] == [1, 2, 3, None]
        # NOT (NULL AND TRUE) is NULL: row 2 goes; NOT (NULL AND FALSE) is TRUE.
        for bound, kept in ((2, [1, 3, None]), (7, [1, 2, 3, None])):
            not_and = Negation(
                Conjunction(
                    [
                        Comparison("<", ColumnRef(3), Literal(0)),
                        Comparison("=", ColumnRef(0), Literal(bound)),
                    ]
                )
            )
            expected = collect(Filter(TableScan(table), not_and))
            assert collect(TableScan(table, predicate=not_and)) == expected
            assert [r[0] for r in expected] == kept


class TestWhatStaysAFilter:
    """Each class the proof does not reach lowers to ``Filter``, unchanged."""

    @pytest.fixture()
    def engine(self, web):
        database = Database()
        database.create_table_from_rows(
            "T",
            [("Id", INT), ("Name", STR), ("Amount", FLOAT), ("Qty", INT)],
            [(1, "a", 2.0, 0), (2, "b", 4.0, 2), (3, None, None, None)],
        )
        return WsqEngine(database=database, web=web)

    @staticmethod
    def _first(plan, kind):
        stack = [plan]
        while stack:
            op = stack.pop()
            if isinstance(op, kind):
                return op
            stack.extend(op.children)
        return None

    @pytest.mark.parametrize(
        "where,rows",
        [
            ("Name = 'a'", [(1,)]),
            ("Name Like 'b%'", [(2,)]),
            ("Amount / Qty > 1", [(2,)]),  # x / 0 is NULL, not an error
            ("Id In (Select Qty From T)", [(2,)]),
        ],
        ids=["string", "like", "division", "in-subquery"],
    )
    def test_lowers_to_filter(self, engine, where, rows):
        sql = "Select Id From T Where {}".format(where)
        plan = engine.plan(sql, mode="sync")
        selection = self._first(plan, Filter)
        assert selection is not None and isinstance(selection.child, TableScan)
        assert selection.child.predicate is None
        assert engine.execute(sql, mode="sync").rows == rows

    def test_what_it_raised_before(self, engine):
        table = engine.database.table("T")
        string_vs_number = Comparison("=", ColumnRef(1, "Name"), Literal(1))
        assert table.decoder(predicate=string_vs_number) is None
        with pytest.raises(TypeMismatchError, match="cannot compare 'a' with 1"):
            collect(lower(L.LogicalFilter(L.LogicalScan(table), string_vs_number)))
        like_a_number = LikePredicate(ColumnRef(0, "Id"), "1%")
        with pytest.raises(TypeMismatchError, match="LIKE requires a string"):
            collect(lower(L.LogicalFilter(L.LogicalScan(table), like_a_number)))
        # Handed straight to the storage layer, such a predicate is refused.
        with pytest.raises(StorageError, match="not a scan predicate"):
            TableScan(table, predicate=string_vs_number).open()
        arithmetic = Comparison(">", BinaryOp("+", ColumnRef(0), Literal(1)), Literal(1))
        assert table.decoder(predicate=arithmetic) is None

    def test_a_term_that_may_raise_keeps_the_whole_predicate_in_the_filter(self, engine):
        # ``Qty > 5 and Name = 1`` is false before it can raise wherever
        # Qty <= 5: splitting the conjunction would lose that.
        table = engine.database.table("T")
        predicate = Conjunction(
            [
                Comparison(">", ColumnRef(3, "Qty"), Literal(5)),
                Comparison("=", ColumnRef(1, "Name"), Literal(1)),
            ]
        )
        plan = lower(L.LogicalFilter(L.LogicalScan(table), predicate))
        assert isinstance(plan, Filter) and plan.child.predicate is None
        assert collect(plan) == []

    def test_placeholder_carrying_column_above_an_aevscan(self, engine):
        sql = "Select Name, Count From T, WebCount Where Name = T1 and Count > 3"
        plan = engine.plan(sql, mode="async")
        assert self._first(plan, AEVScan) is not None
        selection = self._first(plan, Filter)
        assert selection is not None and not isinstance(selection.child, TableScan)
        # Moved below its ReqSync by hand, it meets the placeholder and
        # says so, as it always did.
        count = Comparison(">", ColumnRef(1, "Count"), Literal(3))
        schema = Schema([Column("Name", STR, "T"), Column("Count", INT, "WebCount")])
        pending = RowsScan(schema, [("a", Placeholder(7, "count"))])
        with pytest.raises(PlaceholderError, match="Count evaluated over unresolved"):
            collect(Filter(pending, count))


class TestReadsNoFurtherThanTheFilter:
    def test_limit_one_pins_no_more_pages(self):
        database = Database()
        rows = [(i, str(i).zfill(380), i % 50) for i in range(2000)]
        table = database.create_table_from_rows(
            "Wide", [("Id", INT), ("Pad", STR), ("Qty", INT)], rows
        )
        assert table.heap.pool.disk.page_count >= 200
        predicate = Comparison("=", ColumnRef(2, "Qty"), Literal(37))

        def pinned(plan):
            before = database.buffer_stats()
            rows = collect(plan)
            after = database.buffer_stats()
            return rows, sum(after[k] - before[k] for k in ("hits", "misses"))

        expected, unfused = pinned(Limit(Filter(TableScan(table), predicate), 1))
        rows, fused = pinned(Limit(TableScan(table, predicate=predicate), 1))
        assert rows == expected == [rows[0]] and rows[0][0] == 37
        assert fused <= unfused < 10
        engine = WsqEngine(database=database)
        sql = "Select Id From Wide Where Qty = 37 Limit 1"
        assert "Scan: Wide where Wide.Qty = 37" in engine.explain(sql, form="physical")
        before = database.buffer_stats()
        assert engine.execute(sql).rows == [(37,)]
        after = database.buffer_stats()
        assert sum(after[k] - before[k] for k in ("hits", "misses")) <= unfused

    def test_a_full_size_pull_reads_until_its_rows_are_gathered(self):
        # The contract of a pull (EXPERIMENTS.md, "Where this departs from
        # ISSUE.md"): it ends at ``max_rows`` survivors or the table's
        # end, not after ``max_rows`` records examined.  So the first
        # batch of a half-selective scan costs the pages that hold its 256
        # rows, and the first batch of a 2% one costs the whole table —
        # a consumer that abandons a stream after one batch must pass its
        # demand down as ``max_rows`` (``Limit`` and the joins do).
        database = Database()
        rows = [(i, str(i).zfill(380), i % 50) for i in range(2000)]
        table = database.create_table_from_rows(
            "Wide", [("Id", INT), ("Pad", STR), ("Qty", INT)], rows
        )
        pages = table.heap.pool.disk.page_count

        def first_pull(predicate, max_rows=256):  # the default batch size
            scan = TableScan(table, predicate=predicate)
            scan.open()
            before = database.buffer_stats()
            batch = scan.next_batch(max_rows)
            after = database.buffer_stats()
            scan.close()
            return len(batch), sum(after[k] - before[k] for k in ("hits", "misses"))

        half = Comparison("<", ColumnRef(2, "Qty"), Literal(25))
        count, pinned = first_pull(half)
        assert count == 256
        assert pinned <= 2 * 256 // (2000 // pages) + 2 < pages // 3
        rare = Comparison("=", ColumnRef(2, "Qty"), Literal(37))
        assert first_pull(rare) == (40, pages)  # 40 < 256: reads to the end
        count, pinned = first_pull(rare, max_rows=1)  # demand passed down
        assert count == 1 and pinned < 10

    def test_never_an_empty_batch(self):
        table = _table((INT,), [(i,) for i in range(3000)])
        scan = TableScan(table, predicate=Comparison("=", ColumnRef(0), Literal(2999)))
        scan.open()
        batch = scan.next_batch(4)
        assert batch.to_rows() == [(2999,)]
        assert scan.next_batch(4) is None
        scan.close()


class TestMemoPerPredicateText:
    def test_a_thousand_literals_compile_one_decoder(self):
        database = Database()
        database.create_table_from_rows(
            "T", [("Id", INT), ("Name", STR), ("Qty", INT)], [(i, "n", i % 7) for i in range(20)]
        )
        engine = WsqEngine(database=database)
        sizes = None
        for k in range(1000):
            rows = engine.execute("Select Id From T Where Qty = {}".format(k)).rows
            assert len(rows) == (3 if k < 6 else 2 if k == 6 else 0)
            if sizes is None:
                sizes = _decoder.cache_info().currsize, len(codegen._CODE)
        assert (_decoder.cache_info().currsize, len(codegen._CODE)) == sizes
        # ... while a different text, or a literal of another kind, is its own.
        engine.execute("Select Id From T Where Qty > 3")
        assert _decoder.cache_info().currsize == sizes[0] + 1


_SAMPLE = {INT: -(2**40), FLOAT: 2.5, STR: "Škofja Loka", DATE: "1999-10-01", BOOL: True}
_SWEEP_TYPES = [(t,) for t in DataType] + [(INT, STR, FLOAT, BOOL), (STR, DATE, INT)]


class TestDamageStillRaises:
    """The every-byte truncation sweep of ``tests/test_serialization.py``
    through predicate-carrying decoders: no bound check was traded for
    the test, whichever way the test would have gone."""

    @pytest.mark.parametrize(
        "types", _SWEEP_TYPES, ids=["-".join(t.value for t in ts) for ts in _SWEEP_TYPES]
    )
    def test_truncation_at_every_byte(self, types):
        data = bytearray(512)
        writer = PageWriter(types, data)
        writer.add(tuple(_SAMPLE[t] for t in types))
        writer.write(data)
        whole = bytes(data[:page.checker(page.widths(types))(data)[1][-1]])
        fixed = [i for i, t in enumerate(types) if t in _FIXED]
        operand = ColumnRef(fixed[-1]) if fixed else Literal(1)
        sample = Literal(_SAMPLE[types[fixed[-1]]] if fixed else 1)
        for op in ("=", "<>"):  # keeps the row, drops it
            for subset in (None, (), (len(types) - 1,)):
                decode = page_decoder(tuple(types), subset, Comparison(op, operand, sample))
                kept = decode(whole)
                assert len(kept[0]) == (op == "=")
                for cut in range(len(whole)):
                    with pytest.raises(StorageError):
                        decode(whole[:cut])
