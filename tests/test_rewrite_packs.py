"""Oracles over the shapes the planner places and probes itself.

The corpus is the headline query of each former relational rewrite
(``IN`` decorrelation, disjunction splitting, a derived join bound,
DISTINCT over an aggregate) plus the shapes those rewrites refused.
Each is checked against rows computed in Python straight from the
tables, in sync and async mode and through a memory cache, so the
planner's conjunct placement, its dead-node elision and the hashed
``IN`` probe answer for every one of them.
"""

from collections import Counter

import pytest

from repro.plan import logical as L
from repro.plan.planner import Planner, _term_bound
from repro.relational.expr import ColumnRef, Comparison, Literal
from repro.relational.types import DataType
from repro.sql.parser import parse_select
from repro.storage import Database
from repro.web.cache import make_cache
from repro.wsq import WsqEngine


def _t_rows(rows):
    return [(i, i % 7, "n{}".format(i % 11)) for i in range(rows)]


def _s_rows(rows):
    return [(i,) for i in range(0, rows, 3)]


def _pack_db(rows=400, indexes=True):
    """Deterministic stored tables ``T(A, B, Name)`` and ``S(X)``."""
    db = Database()
    db.create_table_from_rows(
        "T",
        [("A", DataType.INT), ("B", DataType.INT), ("Name", DataType.STR)],
        _t_rows(rows),
    )
    db.create_table_from_rows("S", [("X", DataType.INT)], _s_rows(rows))
    if indexes:
        db.create_index("T", "A")
        db.create_index("T", "B")
    db.analyze()
    return db


@pytest.fixture(scope="module")
def pack_db():
    """Shared read-only corpus (module scope: tests never mutate it)."""
    return _pack_db()


T, S = _t_rows(400), {x for (x,) in _s_rows(400)}


def _counts_by_b():
    return sorted(Counter(b for _, b, _ in T).items())


#: (name, SQL over ``_pack_db()``): each former rewrite's headline query.
PACK_TEMPLATES = [
    ("pack_decorrelate", "Select A From T Where A In (Select X From S)"),
    ("pack_or_to_union", "Select A, Name From T Where B = 1 or B = 3 or B = 5"),
    ("pack_early_filter", "Select T.A From T, S Where T.A = S.X and S.X > 300"),
    ("pack_agg_single_pass", "Select Distinct B, Count(A) From T Group By B"),
]

#: Their rows, computed from the table data alone.
EXPECTED = {
    "pack_decorrelate": [(a,) for a, _, _ in T if a in S],
    "pack_or_to_union": [(a, n) for a, b, n in T if b in (1, 3, 5)],
    "pack_early_filter": [(a,) for a, _, _ in T if a in S and a > 300],
    "pack_agg_single_pass": _counts_by_b(),
}

#: (id, SQL, rows): the shapes the rewrites' guards refused.
REFUSED_SHAPES = [
    ("not_in", "Select A From T Where A Not In (Select X From S)",
     [(a,) for a, _, _ in T if a not in S]),
    ("type_mismatch", "Select Name From T Where Name In (Select X From S)", []),
    ("overlapping_windows", "Select A From T Where B = 1 or B >= 1",
     [(a,) for a, b, _ in T if b >= 1]),
    ("different_columns", "Select A From T Where A = 1 or B = 2",
     [(a,) for a, b, _ in T if a == 1 or b == 2]),
    ("subquery_disjunct", "Select A From T Where B = 1 or A In (Select X From S)",
     [(a,) for a, b, _ in T if b == 1 or a in S]),
    ("unbounded_join", "Select T.A From T, S Where T.A = S.X and S.X >= 0",
     [(a,) for a, _, _ in T if a in S]),
    ("distinct_count", "Select Distinct Count(A) From T Group By B",
     sorted({(n,) for _, n in _counts_by_b()})),
]

PACK_QUERIES = [(name[len("pack_"):], sql) for name, sql in PACK_TEMPLATES]


def _rows(db, sql, **kwargs):
    mode = kwargs.pop("mode", "async")
    engine = WsqEngine(database=db, **kwargs)
    return sorted(engine.execute(sql, mode=mode).rows)


def _expected(pack):
    return sorted(EXPECTED["pack_" + pack])


class TestPackOracles:
    """The engine's rows equal the Python oracle's everywhere it can run."""

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("pack,sql", PACK_QUERIES, ids=[p for p, _ in PACK_QUERIES])
    def test_equivalence_across_modes(self, pack_db, pack, sql, mode):
        assert _rows(pack_db, sql, mode=mode) == _expected(pack)

    @pytest.mark.parametrize("pack,sql", PACK_QUERIES, ids=[p for p, _ in PACK_QUERIES])
    def test_equivalence_with_memory_cache(self, pack_db, pack, sql):
        actual = _rows(pack_db, sql, cache=make_cache(tier="memory"))
        assert actual == _expected(pack)

    def test_all_packs_compose(self, pack_db):
        # One statement holding three of the shapes at once.
        sql = (
            "Select Distinct B, Count(A) From T, S Where T.A = S.X "
            "and S.X > 300 and T.A In (Select X From S) Group By B"
        )
        expected = Counter(b for a, b, _ in T if a in S and a > 300)
        assert _rows(pack_db, sql) == sorted(expected.items())

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize(
        "sql,expected", [c[1:] for c in REFUSED_SHAPES], ids=[c[0] for c in REFUSED_SHAPES]
    )
    def test_refused_shapes_agree(self, pack_db, sql, expected, mode):
        assert _rows(pack_db, sql, mode=mode) == sorted(expected)


class TestIndexWindows:
    def test_null_and_bool_literals_are_not_windows(self):
        null_term = Comparison("=", ColumnRef(0), Literal(None))
        bool_term = Comparison("=", ColumnRef(0), Literal(True))
        assert _term_bound(null_term) is None
        assert _term_bound(bool_term) is None
        assert _term_bound(Comparison(">", Literal(1), ColumnRef(0))) == (0, "<", 1)


class TestAggSinglePassGuards:
    def test_distinct_kept_when_group_column_projected_away(self, pack_db):
        # Counts collide across groups once B is projected away, so the
        # DISTINCT is load-bearing.
        sql = "Select Distinct Count(A) From T Group By B"
        node = Planner(pack_db).plan_logical(parse_select(sql))
        assert any(isinstance(n, L.LogicalDistinct) for n in L.walk(node))
        assert _rows(pack_db, sql) == sorted({(n,) for _, n in _counts_by_b()})

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_distinct_keeps_its_order_by(self, engine, mode):
        # Regression: ``agg_single_pass.skip_sort`` read the planner's
        # Distinct(Sort) — which *is* SELECT DISTINCT ... ORDER BY — as a
        # dead sort and deleted the user's ordering.
        db = Database()
        db.create_table_from_rows(
            "T",
            [("Name", DataType.STR), ("N", DataType.INT)],
            [(None, 1), (None, 0), ("ada", 2), (None, 1)],
        )
        local = WsqEngine(database=db)
        for direction, expected in (("", [0, 1, 2]), (" Desc", [2, 1, 0])):
            sql = "Select Distinct Name, N From T Order By N" + direction
            rows = local.execute(sql, mode=mode).rows
            assert [n for _, n in rows] == expected
        counts = engine.execute(
            "Select Distinct Count From States, WebCount "
            "Where Name = T1 Order By Count Desc",
            mode=mode,
        ).rows
        assert len(counts) > 1
        assert counts == sorted(set(counts), reverse=True)
