"""The planner: plan shapes, binding analysis, errors, options."""

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
from repro.config import EngineConfig
from repro.plan.analysis import analyze_vtables
from repro.plan.planner import Planner
from repro.sql.parser import parse_select
from repro.util.errors import BindingError, PlanError
from repro.vtables.evscan import EVScan


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


class TestBindingErrors:
    def test_unbound_term(self, engine):
        with pytest.raises(BindingError, match="unbound"):
            engine.plan("Select * From States, WebCount Where T2 = 'x'", mode="sync")

    def test_vtable_before_provider(self, engine):
        with pytest.raises(BindingError):
            engine.plan(
                "Select * From WebCount, States Where Name = T1", mode="sync"
            )

    def test_reorder_option_fixes_order(self, engine):
        planner = Planner(
            engine.database, engine.vtables, options=EngineConfig.resolve(reorder=True)
        )
        plan = planner.plan(
            parse_select("Select * From WebCount, States Where Name = T1")
        )
        dj = first(plan, DependentJoin)
        assert isinstance(dj.right, EVScan)

    def test_reorder_cannot_fix_unprovidable(self, engine):
        planner = Planner(
            engine.database, engine.vtables, options=EngineConfig.resolve(reorder=True)
        )
        with pytest.raises(BindingError):
            planner.plan(
                parse_select("Select * From WebCount Where Missing = T1")
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
