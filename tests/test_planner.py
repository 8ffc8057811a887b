"""The planner: plan shapes, binding analysis, errors, options."""

import sqlite3
from collections import Counter

import pytest

from repro.exec import (
    CrossProduct,
    DependentJoin,
    Distinct,
    Filter,
    Limit,
    NestedLoopJoin,
    Project,
    Sort,
)
from repro.plan.analysis import analyze_vtables
from repro.plan.binder import collect_aggregates, collect_names
from repro.relational.types import DataType
from repro.sql.parser import parse_select
from repro.storage import Database
from repro.util.errors import BindingError, PlanError
from repro.vtables.evscan import EVScan
from repro.wsq import WsqEngine


def ops(plan):
    found = [plan]
    for child in plan.children:
        found.extend(ops(child))
    return found


def first(plan, cls):
    for op in ops(plan):
        if isinstance(op, cls):
            return op
    raise AssertionError("no {} in plan".format(cls.__name__))


class TestVTableAnalysis:
    def _usage(self, sql, aliases=("WebCount",)):
        usages, residual = analyze_vtables(parse_select(sql), list(aliases))
        return usages, residual

    def test_n_from_unqualified_terms(self):
        usages, _ = self._usage(
            "Select * From Sigs, WebCount Where Name = T1 and T2 = 'Knuth'"
        )
        assert usages["WebCount"].n == 2

    def test_n_from_qualified_terms(self):
        usages, _ = self._usage(
            "Select * From S, WebCount C Where C.T3 = 'x' and a = C.T1",
            aliases=["C"],
        )
        assert usages["C"].n == 3

    def test_constant_term_consumed(self):
        usages, residual = self._usage(
            "Select * From Sigs, WebCount Where Name = T1 and T2 = 'Knuth'"
        )
        assert usages["WebCount"].constant_terms == {"T2": "Knuth"}
        assert len(residual) == 0

    def test_dependent_term_recorded(self):
        usages, _ = self._usage(
            "Select * From Sigs, WebCount Where Name = T1"
        )
        assert "T1" in usages["WebCount"].dependent_terms

    def test_searchexp_template(self):
        usages, _ = self._usage(
            "Select * From S, WebCount Where SearchExp = '%2 near %1' and a = T1"
        )
        assert usages["WebCount"].template == "%2 near %1"
        # Template parameters raise n.
        assert usages["WebCount"].n == 2

    def test_rank_limits(self):
        usages, residual = analyze_vtables(
            parse_select(
                "Select * From S, WebPages W Where a = W.T1 and W.Rank <= 5 "
                "and W.Rank < 4"
            ),
            ["W"],
        )
        assert usages["W"].rank_limit == 3  # min(5, 4-1)
        assert residual == []

    def test_rank_equality_stays_residual(self):
        usages, residual = analyze_vtables(
            parse_select("Select * From S, WebPages W Where a = W.T1 and W.Rank = 3"),
            ["W"],
        )
        assert usages["W"].rank_limit is None
        assert len(residual) == 1

    def test_reversed_comparison_orientation(self):
        usages, _ = analyze_vtables(
            parse_select("Select * From S, WebPages W Where a = W.T1 and 5 >= W.Rank"),
            ["W"],
        )
        assert usages["W"].rank_limit == 5

    def test_non_string_term_rejected(self):
        with pytest.raises(PlanError, match="string"):
            self._usage("Select * From S, WebCount Where T1 = 42")


class TestPlanShapes:
    def test_query1_shape(self, engine):
        plan = engine.plan(
            "Select Name, Count From States, WebCount Where Name = T1 "
            "Order By Count Desc",
            mode="sync",
        )
        assert isinstance(plan, Sort)
        dj = first(plan, DependentJoin)
        assert isinstance(dj.right, EVScan)
        assert dj.binding_columns == {"T1": 0}

    def test_join_order_follows_from_list(self, engine):
        plan = engine.plan(
            "Select Capital, C.Count, Name, S.Count From States, WebCount C, "
            "WebCount S Where Capital = C.T1 and Name = S.T1 and C.Count > S.Count",
            mode="sync",
        )
        # Filter(C.Count > S.Count) above the outer dependent join.
        assert isinstance(first(plan, Filter).child, DependentJoin)
        djs = [op for op in ops(plan) if isinstance(op, DependentJoin)]
        assert len(djs) == 2
        # Outer join (preorder first) binds S.T1 <- Name (index 0);
        # inner binds C.T1 <- Capital (index 2).
        assert djs[0].binding_columns == {"T1": 0}
        assert djs[1].binding_columns == {"T1": 2}

    def test_stored_join_uses_predicate(self, engine):
        engine.database.create_table_from_rows(
            "Caps", [("City", __import__("repro.relational.types", fromlist=["DataType"]).DataType.STR)],
            [("Boston",), ("Denver",)],
        )
        plan = engine.plan(
            "Select * From States, Caps Where Capital = City", mode="sync"
        )
        assert any(isinstance(op, NestedLoopJoin) for op in ops(plan))

    def test_cross_product_when_no_predicate(self, engine):
        plan = engine.plan("Select * From Sigs, CSFields", mode="sync")
        assert any(isinstance(op, CrossProduct) for op in ops(plan))

    def test_filter_pushed_below_join(self, engine):
        plan = engine.plan(
            "Select * From States, Sigs Where Population > 10000", mode="sync"
        )
        product = first(plan, CrossProduct)
        # Pushed onto the States scan, and from there into its page decoder.
        assert product.left.label() == "Scan: States where States.Population > 10000"

    def test_limit_and_distinct(self, engine):
        plan = engine.plan(
            "Select Distinct Capital From States Limit 3", mode="sync"
        )
        assert isinstance(plan, Limit)
        assert isinstance(plan.child, Distinct)

    def test_hidden_sort_column_dropped(self, engine):
        plan = engine.plan(
            "Select Name From States Order By Population Desc", mode="sync"
        )
        assert isinstance(plan, Project)
        assert plan.schema.names() == ["Name"]
        assert isinstance(plan.child, Sort)

    def test_order_by_alias(self, engine):
        result = engine.execute(
            "Select Population/1000 As M, Name From States Order By M Desc Limit 1",
            mode="sync",
        )
        assert result.rows[0][1] == "California"

    def test_standalone_vtable_with_constants(self, engine):
        result = engine.execute(
            "Select Count From WebCount Where T1 = 'Wyoming'", mode="sync"
        )
        assert len(result.rows) == 1
        assert result.rows[0][0] == 48

    def test_select_star_qualified(self, engine):
        result = engine.execute("Select S.* From States S Limit 1", mode="sync")
        assert result.columns == ["Name", "Population", "Capital"]


def _big_dim_engine():
    db = Database()
    db.create_table_from_rows("Big", [("K", DataType.INT)], [(i,) for i in range(600)])
    db.create_table_from_rows("Dim", [("K", DataType.INT)], [(i * 12,) for i in range(50)])
    return WsqEngine(database=db)


class TestNoDeadWork:
    """Each conjunct sits where it binds, and no node is built to be a no-op."""

    def test_one_table_bound_is_its_scans_selection(self):
        engine = _big_dim_engine()
        sql = "Select Big.K From Big, Dim Where Big.K = Dim.K and Dim.K > 500"
        join = first(engine.plan(sql, mode="sync"), NestedLoopJoin)
        # A bare equi-join, which the join hashes; the bound is Dim's.
        assert join.label() == "Join: Big.K = Dim.K"
        assert join.right.label() == "Scan: Dim where Dim.K > 500"
        assert sorted(engine.execute(sql).rows) == [(k,) for k in range(504, 600, 12)]

    def test_identity_projection_is_not_built(self, engine):
        assert "Project" not in engine.explain("Select * From States", form="logical")
        assert len(engine.execute("Select * From States").rows) == 50

    def test_distinct_over_a_unique_aggregate_is_not_built(self, engine):
        sql = "Select Distinct Capital, Count(*) From States Group By Capital"
        assert "Distinct" not in engine.explain(sql, form="logical")
        assert len(engine.execute(sql).rows) == 50


class TestBindingErrors:
    def test_unbound_term(self, engine):
        with pytest.raises(BindingError, match="unbound"):
            engine.plan("Select * From States, WebCount Where T2 = 'x'", mode="sync")

    def test_vtable_before_provider(self, engine):
        # FROM order is the join order: nothing moves WebCount after States.
        with pytest.raises(
            BindingError, match="first in the join order but input T1 depends on Name"
        ):
            engine.plan(
                "Select * From WebCount, States Where Name = T1", mode="sync"
            )

    def test_unknown_table(self, engine):
        with pytest.raises(PlanError, match="unknown table"):
            engine.plan("Select * From Nonexistent", mode="sync")

    def test_duplicate_alias(self, engine):
        with pytest.raises(PlanError, match="duplicate"):
            engine.plan("Select * From States S, Sigs S", mode="sync")

    def test_unknown_column(self, engine):
        with pytest.raises(PlanError, match="unknown column"):
            engine.plan("Select Nope From States", mode="sync")

    def test_having_without_group(self, engine):
        with pytest.raises(PlanError, match="HAVING"):
            engine.plan("Select Name From States Having Name = 'x'", mode="sync")

    def test_star_with_group_by(self, engine):
        with pytest.raises(PlanError):
            engine.plan("Select * From States Group By Capital", mode="sync")

    def test_non_grouped_column_rejected(self, engine):
        with pytest.raises(PlanError, match="GROUP BY"):
            engine.plan(
                "Select Name, Count(*) From States Group By Capital", mode="sync"
            )


class TestAggregationPlans:
    def test_simple_aggregate(self, engine):
        result = engine.execute("Select Count(*) From States", mode="sync")
        assert result.rows == [(50,)]

    def test_group_by_with_having(self, engine):
        result = engine.execute(
            "Select Capital, Count(*) From States Group By Capital "
            "Having Count(*) > 1",
            mode="sync",
        )
        assert result.rows == []  # capitals are unique

    def test_aggregate_arithmetic(self, engine):
        result = engine.execute(
            "Select Sum(Population)/Count(*) As AvgPop From States", mode="sync"
        )
        expected = engine.execute("Select Avg(Population) From States", mode="sync")
        assert result.rows[0][0] == pytest.approx(expected.rows[0][0])

    def test_order_by_aggregate(self, engine):
        result = engine.execute(
            "Select Capital, Max(Population) From States Group By Capital "
            "Order By Max(Population) Desc Limit 1",
            mode="sync",
        )
        assert result.rows[0][0] == "Sacramento"


#: Grouped queries the stdlib ``sqlite3`` answers too, and whether their
#: ORDER BY is total (compare sequences) or not (compare multisets).
GROUPED = [
    # HAVING: each predicate form over a group key ...
    ("Select Capital, Count(*) From States Group By Capital Having Capital Like 'A%'", False),
    ("Select Capital From States Group By Capital Having Capital Not Like '%o%'", False),
    ("Select Capital From States Group By Capital "
     "Having Capital In ('Boston', 'Austin', 'Nowhere')", False),
    ("Select Capital From States Group By Capital Having Capital Not In ('Boston', 'Austin')", False),
    ("Select Capital From States Group By Capital Having Capital Is Not Null", False),
    ("Select Capital From States Group By Capital Having Capital Is Null", False),
    ("Select Capital From States Group By Capital Having Capital Between 'B' And 'D'", False),
    # ... and over an aggregate.
    ("Select Capital, Sum(Population) From States Group By Capital "
     "Having Sum(Population) Between 1000 And 5000", False),
    ("Select Capital From States Group By Capital "
     "Having Max(Population) Not Between 1000 And 20000", False),
    ("Select Capital From States Group By Capital Having Max(Name) Like 'New%'", False),
    ("Select Capital From States Group By Capital Having Count(*) In (1, 3)", False),
    ("Select Capital From States Group By Capital Having Min(Population) Not In (614, 480)", False),
    ("Select Capital From States Group By Capital Having Max(Population) Is Null", False),
    ("Select Capital From States Group By Capital Having Sum(Population) Is Not Null", False),
    ("Select Population > 5000, Count(*) From States Group By Population > 5000 "
     "Having Count(*) Between 5 And 45", False),
    # SELECT: the same forms over a group key and over an aggregate.
    ("Select Capital Like 'A%', Count(*) From States Group By Capital", False),
    ("Select Capital, Count(*) In (1, 2) From States Group By Capital", False),
    ("Select Capital Is Null, Max(Population) Is Not Null From States Group By Capital", False),
    ("Select Capital, Sum(Population) Between 1000 And 5000, "
     "Capital Not Between 'B' And 'D' From States Group By Capital", False),
    ("Select Max(Name) Like 'N%', Count(*) From States Group By Population > 5000 "
     "Order By Population > 5000 Desc", True),
    # ORDER BY an aggregate, or a group key, that the select list does not show.
    ("Select Capital From States Group By Capital Order By Max(Population) Desc, Capital", True),
    ("Select Capital From States Group By Capital Order By Count(*) Desc", False),
    ("Select Max(Population) From States Group By Capital Order By Capital", True),
    ("Select Population > 5000, Count(*) From States Group By Population > 5000 "
     "Order By Sum(Population)", True),
    ("Select Capital Like '%a%', Count(*) From States Group By Capital Like '%a%' "
     "Having Count(*) Between 10 And 40 Order By Sum(Population) Desc", True),
]


class TestGroupedQueriesAgreeWithSqlite:
    """SELECT, HAVING and ORDER BY of a grouped query bind every predicate
    form over group keys and aggregates, and answer what ``sqlite3`` does
    over the same ``States`` rows (a bool is its 0/1: ``True == 1``)."""

    @pytest.fixture()
    def oracle(self, engine):
        rows = engine.execute("Select Name, Population, Capital From States").rows
        db = sqlite3.connect(":memory:")
        db.execute("Pragma case_sensitive_like = On")  # LIKE as the engine has it
        db.execute("Create Table States (Name Text, Population Integer, Capital Text)")
        db.executemany("Insert Into States Values (?, ?, ?)", rows)
        yield db
        db.close()

    @pytest.mark.parametrize("sql, ordered", GROUPED, ids=[sql for sql, _ in GROUPED])
    def test_agrees_with_sqlite(self, engine, oracle, sql, ordered):
        ours = engine.execute(sql, mode="sync").rows
        theirs = oracle.execute(sql).fetchall()
        if ordered:
            assert ours == theirs
        else:
            assert Counter(ours) == Counter(theirs)

    def test_aggregate_in_where_is_rejected(self, engine):
        with pytest.raises(PlanError):
            engine.plan(
                "Select Capital From States Where Count(*) > 1 Group By Capital",
                mode="sync",
            )

    def test_subquery_in_having_is_rejected(self, engine):
        with pytest.raises(PlanError, match="subqueries are not supported"):
            engine.plan(
                "Select Capital From States Group By Capital "
                "Having Capital In (Select Capital From States)",
                mode="sync",
            )


class TestSubqueries:
    def test_in_subquery(self, engine):
        result = engine.execute(
            "Select Name From States Where Capital In "
            "(Select Capital From States Where Population > 10000) Order By Name",
            mode="sync",
        )
        big = engine.execute(
            "Select Name From States Where Population > 10000 Order By Name",
            mode="sync",
        )
        assert result.rows == big.rows

    def test_not_in_subquery(self, engine):
        result = engine.execute(
            "Select Count(*) From States Where Name Not In "
            "(Select Name From States Where Population > 10000)",
            mode="sync",
        )
        assert result.rows == [(43,)]

    def test_exists_true_and_false(self, engine):
        yes = engine.execute(
            "Select Count(*) From Sigs Where Exists "
            "(Select Name From States Where Population > 30000)",
            mode="sync",
        )
        no = engine.execute(
            "Select Count(*) From Sigs Where Exists "
            "(Select Name From States Where Population > 99000)",
            mode="sync",
        )
        assert yes.rows == [(37,)]
        assert no.rows == [(0,)]

    def test_not_exists(self, engine):
        result = engine.execute(
            "Select Count(*) From Sigs Where Not Exists "
            "(Select Name From States Where Population > 99000)",
            mode="sync",
        )
        assert result.rows == [(37,)]

    def test_the_subquery_keeps_its_names_and_aggregates(self, engine):
        where = parse_select(
            "Select Name From States Where Population In "
            "(Select Max(Population) From States Where Capital = 'x') "
            "And Not Exists (Select Name From Sigs)"
        ).where
        assert [name.sql() for name in collect_names(where)] == ["Population"]
        assert collect_aggregates(where) == []
        result = engine.execute(
            "Select Name From States Where Population In "
            "(Select Max(Population) From States)",
            mode="sync",
        )
        assert result.rows == [("California",)]

    def test_subquery_with_outer_vtable_async(self, engine):
        sql = (
            "Select Name, Count From States, WebCount Where Name = T1 "
            "and Name In (Select Name From States Where Population > 14000) "
            "Order By Count Desc"
        )
        sync_rows = engine.execute(sql, mode="sync").rows
        async_rows = engine.execute(sql, mode="async").rows
        assert sorted(sync_rows) == sorted(async_rows)
        assert len(sync_rows) == 4  # CA, TX, NY, FL

    def test_multi_column_subquery_rejected(self, engine):
        with pytest.raises(PlanError, match="exactly one column"):
            engine.plan(
                "Select Name From States Where Name In (Select * From States)",
                mode="sync",
            )

    def test_correlated_subquery_rejected(self, engine):
        # Correlation is unsupported: inner names must resolve locally.
        with pytest.raises(PlanError, match="unknown column"):
            engine.plan(
                "Select Name From States S Where Exists "
                "(Select Name From Sigs Where Name = S.Capital)",
                mode="sync",
            )

    def test_null_semantics_of_not_in(self, engine):
        engine.database.create_table_from_rows(
            "WithNull",
            [("V", __import__("repro.relational.types", fromlist=["DataType"]).DataType.STR)],
            [("x",), (None,)],
        )
        # NOT IN against a list containing NULL filters everything out.
        result = engine.execute(
            "Select Name From Sigs Where Name Not In (Select V From WithNull)",
            mode="sync",
        )
        assert result.rows == []
