"""Property-based SQL correctness against a naive Python oracle.

Hypothesis generates random tables and random (valid-by-construction)
single- and two-table queries; the engine's results must match a direct
Python evaluation of the same semantics.  This pins down filter logic,
join semantics, projection, ordering, DISTINCT, LIMIT, and aggregates
independently of the hand-written unit tests.

The second half holds the engine to the same standard: what
``WsqEngine`` runs (statement table, kept plan, ReqSync placement) must
return the rows of the planner's tree lowered as it is
(``lower(plan_logical(q))``) and of the Python oracle, on the shapes
the planner places itself (one-table bounds under a join, IN probes,
disjunctions), in both execution modes.
"""

import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asynciter.context import AsyncContext
from repro.exec import collect
from repro.plan.physical import lower
from repro.plan.planner import Planner
from repro.relational.types import DataType
from repro.sql.parser import parse_select
from repro.storage import Database
from repro.wsq import WsqEngine

NAMES = ["ada", "bob", "cy", "dee", "ed", "flo", None]

COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}
SARGABLE = ["=", "<", "<=", ">", ">="]


@st.composite
def table_rows(draw):
    count = draw(st.integers(min_value=0, max_value=25))
    return [
        (
            draw(st.sampled_from(NAMES)),
            draw(st.none() | st.integers(min_value=-20, max_value=20)),
        )
        for _ in range(count)
    ]


@st.composite
def filter_clause(draw, alias):
    kind = draw(st.sampled_from(["cmp", "like", "null", "in", "between", "none"]))
    if kind == "none":
        return None, lambda row: True
    if kind == "cmp":
        op = draw(st.sampled_from(sorted(COMPARE)))
        value = draw(st.integers(min_value=-10, max_value=10))
        sql = "{a}.N {op} {v}".format(a=alias, op=op, v=value)
        fn = COMPARE[op]
        return sql, lambda row: row[1] is not None and fn(row[1], value)
    if kind == "like":
        pattern = draw(st.sampled_from(["%a%", "b%", "%o", "c_", "%"]))
        sql = "{a}.Name Like '{p}'".format(a=alias, p=pattern)
        import re

        regex = re.compile(
            "^" + "".join(".*" if c == "%" else "." if c == "_" else re.escape(c)
                          for c in pattern) + "$"
        )
        return sql, lambda row: row[0] is not None and regex.match(row[0]) is not None
    if kind == "null":
        negated = draw(st.booleans())
        sql = "{a}.Name Is {n}Null".format(a=alias, n="Not " if negated else "")
        return sql, (lambda row: row[0] is not None) if negated else (
            lambda row: row[0] is None
        )
    if kind == "in":
        values = draw(st.lists(st.sampled_from(["ada", "bob", "zz"]), min_size=1,
                               max_size=3, unique=True))
        sql = "{a}.Name In ({v})".format(
            a=alias, v=", ".join("'{}'".format(v) for v in values)
        )
        return sql, lambda row: row[0] in values
    low = draw(st.integers(min_value=-10, max_value=5))
    high = low + draw(st.integers(min_value=0, max_value=10))
    sql = "{a}.N Between {lo} and {hi}".format(a=alias, lo=low, hi=high)
    return sql, lambda row: row[1] is not None and low <= row[1] <= high


@st.composite
def or_windows(draw, alias):
    """A same-column OR of sargable comparisons; windows may overlap."""
    bounds = draw(
        st.lists(
            st.tuples(
                st.sampled_from(SARGABLE), st.integers(min_value=-10, max_value=10)
            ),
            min_size=2,
            max_size=3,
        )
    )
    sql = " or ".join("{}.N {} {}".format(alias, op, v) for op, v in bounds)
    return sql, lambda row: row[1] is not None and any(
        COMPARE[op](row[1], v) for op, v in bounds
    )


def build_db(rows_t, rows_u=None, indexed=False):
    db = Database()
    db.create_table_from_rows(
        "T", [("Name", DataType.STR), ("N", DataType.INT)], rows_t
    )
    if rows_u is not None:
        db.create_table_from_rows(
            "U", [("Name", DataType.STR), ("N", DataType.INT)], rows_u
        )
    if indexed:
        db.create_index("T", "N")
    return db


def run(db, sql):
    """Rows through the engine: parse, plan, statement table, lower, run."""
    return WsqEngine(database=db).execute(sql, mode="sync").rows


def run_unoptimized(db, sql):
    """The reference: the planner's tree lowered as it is."""
    planner = Planner(db)
    return collect(lower(planner.plan_logical(parse_select(sql)), planner.options))


class TestSingleTableOracle:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table_rows(), filter_clause("T"), st.booleans(), st.booleans())
    def test_filter_order_distinct(self, rows, clause, descending, distinct):
        sql_filter, oracle_filter = clause
        db = build_db(rows)
        sql = "Select {d}T.Name, T.N From T".format(d="Distinct " if distinct else "")
        if sql_filter:
            sql += " Where " + sql_filter
        sql += " Order By T.N{} ".format(" Desc" if descending else "")
        got = run(db, sql)
        expected = [r for r in rows if oracle_filter(r)]
        if distinct:
            seen = set()
            deduped = []
            for row in expected:
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            expected = deduped
        keys = [r[1] for r in got]
        none_free = [k for k in keys if k is not None]
        assert none_free == sorted(none_free, reverse=descending)
        assert sorted(got, key=repr) == sorted(expected, key=repr)

    @settings(max_examples=80, deadline=None)
    @given(table_rows(), st.integers(min_value=0, max_value=5))
    def test_limit(self, rows, limit):
        db = build_db(rows)
        got = run(db, "Select Name From T Limit {}".format(limit))
        assert len(got) == min(limit, len(rows))

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table_rows())
    def test_aggregates_match_python(self, rows):
        db = build_db(rows)
        got = run(
            db,
            "Select Count(*), Count(N), Sum(N), Min(N), Max(N), Avg(N) From T",
        )[0]
        values = [r[1] for r in rows if r[1] is not None]
        expected = (
            len(rows),
            len(values),
            sum(values) if values else None,
            min(values) if values else None,
            max(values) if values else None,
            (sum(values) / len(values)) if values else None,
        )
        assert got[:5] == expected[:5]
        if expected[5] is None:
            assert got[5] is None
        else:
            assert got[5] == pytest.approx(expected[5])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table_rows())
    def test_group_by_matches_python(self, rows):
        db = build_db(rows)
        got = run(db, "Select Name, Count(*) From T Group By Name")
        expected = {}
        for name, _ in rows:
            expected[name] = expected.get(name, 0) + 1
        assert {name: count for name, count in got} == expected
        assert len(got) == len(expected)


class TestJoinOracle:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table_rows(), table_rows())
    def test_equijoin_matches_python(self, rows_t, rows_u):
        db = build_db(rows_t, rows_u)
        got = run(
            db,
            "Select T.Name, T.N, U.N From T, U Where T.Name = U.Name",
        )
        expected = [
            (tn, tv, uv)
            for tn, tv in rows_t
            for un, uv in rows_u
            if tn is not None and un is not None and tn == un
        ]
        assert sorted(got, key=repr) == sorted(expected, key=repr)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table_rows(), table_rows())
    def test_theta_join_matches_python(self, rows_t, rows_u):
        db = build_db(rows_t, rows_u)
        got = run(db, "Select T.N, U.N From T, U Where T.N < U.N")
        expected = [
            (tv, uv)
            for _, tv in rows_t
            for _, uv in rows_u
            if tv is not None and uv is not None and tv < uv
        ]
        assert sorted(got, key=repr) == sorted(expected, key=repr)

    @settings(max_examples=40, deadline=None)
    @given(table_rows(), table_rows())
    def test_cross_product_cardinality(self, rows_t, rows_u):
        db = build_db(rows_t, rows_u)
        got = run(db, "Select T.Name, U.Name From T, U")
        assert len(got) == len(rows_t) * len(rows_u)


class TestOptimizerEquivalence:
    """The engine's path vs the planner's tree lowered directly: results
    must be identical row-for-row (modulo order for unordered queries)."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table_rows(), filter_clause("T"), st.booleans())
    def test_single_table_agrees(self, rows, clause, distinct):
        sql_filter, _ = clause
        db = build_db(rows)
        sql = "Select {d}T.Name, T.N From T".format(
            d="Distinct " if distinct else ""
        )
        if sql_filter:
            sql += " Where " + sql_filter
        sql += " Order By T.N"
        assert run(db, sql) == run_unoptimized(db, sql)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table_rows(), table_rows(), filter_clause("T"))
    def test_join_agrees(self, rows_t, rows_u, clause):
        sql_filter, _ = clause
        db = build_db(rows_t, rows_u)
        sql = "Select T.Name, T.N, U.N From T, U Where T.Name = U.Name"
        if sql_filter:
            sql += " and " + sql_filter
        got = run(db, sql)
        expected = run_unoptimized(db, sql)
        assert sorted(got, key=repr) == sorted(expected, key=repr)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table_rows())
    def test_aggregates_agree(self, rows):
        db = build_db(rows)
        sql = "Select Name, Count(*), Sum(N) From T Group By Name"
        got = run(db, sql)
        expected = run_unoptimized(db, sql)
        assert sorted(got, key=repr) == sorted(expected, key=repr)


def _agree(db, sql, mode, oracle_rows):
    """Engine rows == unoptimized rows == the Python oracle's (as bags);
    returns the engine's rows in the order it produced them."""
    rows = WsqEngine(database=db).execute(sql, mode=mode).rows
    got = sorted(rows, key=repr)
    assert got == sorted(run_unoptimized(db, sql), key=repr)
    assert got == sorted(oracle_rows, key=repr)
    return rows


@pytest.mark.parametrize("mode", ["sync", "async"])
class TestOptimizerEquivalenceEngine:
    """Same property through the full WSQ engine, in both execution
    modes, on the shapes the planner places and probes itself."""

    SQL = ("Select Name, Count From States, WebCount Where Name = T1 "
           "Order By Count Desc")

    def test_packs_do_not_change_wsq_results(self, web, paper_db, mode):
        engine = WsqEngine(database=paper_db, web=web)
        got = engine.run(self.SQL, mode=mode).rows
        planner = Planner(paper_db, engine.vtables, options=engine.config)
        expected = collect(
            lower(
                planner.plan_logical(parse_select(self.SQL)),
                engine.config,
                AsyncContext(engine.pump),
            )
        )
        # Async emission order varies with call completion for tied sort
        # keys, so compare the row multiset plus the ordering-key sequence.
        assert sorted(got) == sorted(expected)
        assert [count for _, count in got] == [count for _, count in expected]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table_rows(), filter_clause("T"), st.booleans())
    def test_distinct_order_by_agrees(self, mode, rows, clause, descending):
        sql_filter, oracle_filter = clause
        db = build_db(rows)
        sql = "Select Distinct T.Name, T.N From T"
        if sql_filter:
            sql += " Where " + sql_filter
        sql += " Order By T.N" + (" Desc" if descending else "")
        got = _agree(db, sql, mode, {r for r in rows if oracle_filter(r)})
        assert [n for _, n in got] == [n for _, n in run_unoptimized(db, sql)]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table_rows(), table_rows(), st.booleans())
    def test_in_subquery_agrees(self, mode, rows_t, rows_u, negated):
        db = build_db(rows_t, rows_u)
        sql = "Select T.Name, T.N From T Where T.N {}In (Select U.N From U)".format(
            "Not " if negated else ""
        )
        candidates = {n for _, n in rows_u}
        if negated:
            # NOT IN over a NULL-bearing list is never True.
            expected = [
                r for r in rows_t
                if r[1] is not None and None not in candidates
                and r[1] not in candidates
            ]
        else:
            expected = [
                r for r in rows_t if r[1] is not None and r[1] in candidates
            ]
        _agree(db, sql, mode, expected)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table_rows(), or_windows("T"), st.booleans())
    def test_or_windows_agree(self, mode, rows, windows, indexed):
        # A row in two windows comes back once, which the bag comparison sees.
        sql_filter, oracle_filter = windows
        db = build_db(rows, indexed=indexed)
        sql = "Select T.Name, T.N From T Where " + sql_filter
        _agree(db, sql, mode, [r for r in rows if oracle_filter(r)])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table_rows(), table_rows(), st.sampled_from(SARGABLE),
           st.integers(min_value=-10, max_value=10), st.booleans())
    def test_bounded_equijoin_agrees(self, mode, rows_t, rows_u, op, bound, indexed):
        db = build_db(rows_t, rows_u, indexed=indexed)
        sql = (
            "Select T.Name, T.N, U.Name From T, U "
            "Where T.N = U.N and U.N {} {}".format(op, bound)
        )
        expected = [
            (tn, tv, un)
            for tn, tv in rows_t
            for un, uv in rows_u
            if tv is not None and tv == uv and COMPARE[op](uv, bound)
        ]
        _agree(db, sql, mode, expected)
