"""The ReqSync placement algorithm: paper Figures 3, 6, 7, 8 and clash rules."""

import pytest

from repro.asynciter.context import AsyncContext
from repro.asynciter.rewrite import rewrite_logical
from repro.config import EngineConfig
from repro.exec import collect
from repro.plan import logical as L
from repro.plan.physical import lower
from repro.plan.planner import Planner
from repro.sql.parser import parse_select
from repro.wsq import WsqEngine


def plan_shape(plan):
    """Operator class names, preorder — a structural fingerprint."""
    names = []

    def walk(op, depth):
        names.append("{}{}".format("." * depth, type(op).__name__))
        for child in op.children:
            walk(child, depth + 1)

    walk(plan, 0)
    return names


def rewrite_sql(engine, sql, **settings):
    """The async plan the engine ships for *sql*, under *settings*."""
    configured = WsqEngine(
        database=engine.database,
        web=engine.web,
        cache=False,
        config=EngineConfig.resolve(**settings),
    )
    return configured.plan(sql, mode="async")


class TestInsertionAndBasicPercolation:
    def test_figure3_shape(self, engine):
        """Sigs x WebCount with ORDER BY: ReqSync below Sort (Figure 3)."""
        plan = rewrite_sql(
            engine,
            "Select * From Sigs, WebCount Where Name = T1 and T2 = 'Knuth' "
            "Order By Count Desc",
        )
        shape = [s.lstrip(".") for s in plan_shape(plan)]
        assert shape[0] == "Sort"
        assert shape.index("Sort") < shape.index("ReqSync")
        assert shape.index("ReqSync") < shape.index("DependentJoin")
        assert "EVScan" not in shape  # replaced by AEVScan
        assert "AEVScan" in shape

    def test_every_evscan_becomes_aevscan(self, engine):
        plan = rewrite_sql(
            engine,
            "Select Capital, C.Count, Name, S.Count From States, WebCount C, "
            "WebCount S Where Capital = C.T1 and Name = S.T1 and C.Count > S.Count",
        )
        flat = " ".join(plan_shape(plan))
        assert "EVScan" not in flat.replace("AEVScan", "")

    def test_figure6_consolidation(self, engine):
        """Two dependent joins -> ONE ReqSync above both (Figure 6d)."""
        plan = rewrite_sql(
            engine,
            "Select * From Sigs, WebPages_AV AV, WebPages_Google G "
            "Where Name = AV.T1 and Name = G.T1 and AV.Rank <= 3 and G.Rank <= 3",
        )
        shape = plan_shape(plan)
        assert shape.count("ReqSync") + sum(
            1 for s in shape if s.endswith("ReqSync")
        ) >= 1
        reqsyncs = [s for s in shape if s.lstrip(".") == "ReqSync"]
        assert len(reqsyncs) == 1
        # The single ReqSync sits above both dependent joins.
        top_reqsync_depth = min(
            s.count(".") for s in shape if s.lstrip(".") == "ReqSync"
        )
        dj_depths = [s.count(".") for s in shape if s.lstrip(".") == "DependentJoin"]
        assert all(d > top_reqsync_depth for d in dj_depths)

    def test_figure8_join_rewritten_to_selection_over_cross_product(self, engine):
        # The join predicate reads the filled attribute Count (Example 3).
        sql = (
            "Select States.Name, Count, S2.Name From States, WebCount, States S2 "
            "Where States.Name = T1 and Count < S2.Population"
        )
        assert "reqsync.join_to_selection" in engine.explain(sql, form="rules")
        plan = rewrite_sql(engine, sql)
        shape = [s.lstrip(".") for s in plan_shape(plan)]
        assert "NestedLoopJoin" not in shape
        assert "CrossProduct" in shape
        # Filter stayed above the consolidated ReqSync.
        assert shape.index("Filter") < shape.index("ReqSync")
        assert shape.index("ReqSync") < shape.index("CrossProduct")
        assert shape.count("ReqSync") == 1


class TestClashRules:
    def test_sort_on_filled_attr_clashes(self, engine):
        plan = rewrite_sql(
            engine,
            "Select Name, Count From States, WebCount Where Name = T1 "
            "Order By Count Desc",
        )
        shape = [s.lstrip(".") for s in plan_shape(plan)]
        assert shape.index("Sort") < shape.index("ReqSync")

    def test_filter_on_filled_attr_stays_above(self, engine):
        plan = rewrite_sql(
            engine,
            "Select Name, Count From States, WebCount Where Name = T1 and Count > 10",
        )
        shape = [s.lstrip(".") for s in plan_shape(plan)]
        assert shape.index("Filter") < shape.index("ReqSync")

    def test_aggregate_clashes(self, engine):
        plan = rewrite_sql(
            engine,
            "Select Capital, Sum(Count) From States, WebCount Where Name = T1 "
            "Group By Capital",
        )
        shape = [s.lstrip(".") for s in plan_shape(plan)]
        assert shape.index("Aggregate") < shape.index("ReqSync")

    def test_distinct_clashes(self, engine):
        plan = rewrite_sql(
            engine,
            "Select Distinct URL From States, WebPages Where Name = T1 and Rank <= 2",
        )
        shape = [s.lstrip(".") for s in plan_shape(plan)]
        assert shape.index("Distinct") < shape.index("ReqSync")

    @pytest.mark.parametrize("mode", ["async", "sync"])
    def test_computed_projection_of_a_filled_attr_clashes(self, engine, mode):
        """Clash rule 1: a projection that computes from a filled attribute
        stays above the ReqSync, so it computes from the patched count."""
        sql = ("Select S.Name, C.Count, C.Count + 1 From States S, WebCount C "
               "Where S.Name = C.T1 and S.Name = 'Ohio'")
        assert engine.execute(sql, mode=mode).rows == [("Ohio", 215, 216)]

    def test_projection_keeping_filled_attrs_is_transparent(self, engine):
        plan = rewrite_sql(
            engine,
            "Select Name, Count From States, WebCount Where Name = T1",
        )
        shape = [s.lstrip(".") for s in plan_shape(plan)]
        # ReqSync percolated above the Project (Count survives it).
        assert shape.index("ReqSync") < shape.index("Project")

    def test_dependent_join_left_side_pull(self, engine):
        """A ReqSync on the left input of a later DJ rises above it when
        the join's bindings don't touch filled attrs (Figure 6 step)."""
        plan = rewrite_sql(
            engine,
            "Select * From States, WebCount C, WebCount S "
            "Where Name = C.T1 and Capital = S.T1",
        )
        shape = [s.lstrip(".") for s in plan_shape(plan)]
        assert shape.count("ReqSync") == 1


class TestEquivalence:
    """The rewritten plan must return the same rows as the sync plan."""

    QUERIES = [
        "Select Name, Count From States, WebCount Where Name = T1",
        "Select Name, Count From Sigs, WebCount Where Name = T1 and T2 = 'Knuth' "
        "Order By Count Desc",
        "Select Name, URL, Rank From Sigs, WebPages Where Name = T1 and Rank <= 3",
        "Select Capital, C.Count, Name, S.Count From States, WebCount C, WebCount S "
        "Where Capital = C.T1 and Name = S.T1 and C.Count > S.Count",
        "Select Count(*) From Sigs, WebPages Where Name = T1 and Rank <= 3",
        "Select Distinct Name From Sigs, WebPages Where Name = T1 and Rank <= 2",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_sync_async_same_rows(self, engine, sql):
        sync_rows = engine.execute(sql, mode="sync").rows
        async_rows = engine.execute(sql, mode="async").rows
        assert sorted(sync_rows, key=repr) == sorted(async_rows, key=repr)


class TestFilterHoist:
    """Section 4.5.2's enabling rewrite: "if O is a ... selection ...
    we can pull O above its parent first"."""

    # Rank = 3 can't become a fetch limit, so it stays a residual Filter
    # between the two dependent joins — blocking ReqSync percolation
    # until the hoist moves it above the second join.
    SQL = (
        "Select * From States, WebPages W, WebCount C "
        "Where Name = W.T1 and W.Rank = 3 and Name = C.T1"
    )

    def test_filter_hoisted_above_second_join(self, engine):
        shape = [s.lstrip(".") for s in plan_shape(engine.plan(self.SQL))]
        # One consolidated ReqSync, below the hoisted Filter, above both
        # dependent joins: maximal concurrency despite the clash.
        assert shape.count("ReqSync") == 1
        filter_index = shape.index("Filter")
        reqsync_index = shape.index("ReqSync")
        dj_indexes = [i for i, s in enumerate(shape) if s == "DependentJoin"]
        assert filter_index < reqsync_index < min(dj_indexes)

    def test_hoisted_plan_rows_match_sync(self, engine):
        sync_rows = engine.execute(self.SQL, mode="sync").rows
        async_rows = engine.execute(self.SQL, mode="async").rows
        assert sorted(sync_rows, key=repr) == sorted(async_rows, key=repr)
        assert len(sync_rows) == 50  # every state has a rank-3 hit

    def test_hoist_preserves_predicate_semantics(self, engine):
        for row in engine.execute(self.SQL, mode="async").rows:
            assert row[6] == 3  # W.Rank column


class TestReqSyncOnTheRight:
    """A ReqSync that is a binary node's right child reads its filled
    columns at the right side's offset.  The planner is left-deep (a
    virtual table always hangs under a dependent join), so only a
    hand-built tree handed to ``rewrite_logical`` has this shape."""

    SQL = (
        "Select Name, Count From States, WebCount "
        "Where T1 = 'Ohio' and Population > Count"
    )

    def _join_with_the_scan_on_the_right(self, engine):
        """``Join(States, WebCount)`` on the planner's ``Population > Count``."""
        planned = Planner(engine.database, engine.vtables).plan_logical(parse_select(self.SQL))
        selection = planned.child
        assert isinstance(selection, L.LogicalFilter)
        states, scan = selection.child.left, selection.child.right
        assert isinstance(scan, L.LogicalVTableScan) and not scan.asynchronous
        return L.LogicalJoin(states, scan, selection.predicate)

    def test_a_join_reading_a_filled_column_becomes_a_selection(self, engine):
        placed, firings = rewrite_logical(self._join_with_the_scan_on_the_right(engine))
        assert [firing.rule for firing in firings] == [
            "reqsync.insert", "reqsync.join_to_selection", "reqsync.percolate_product",
        ]
        # The predicate waits above the ReqSync, over the patched counts.
        assert isinstance(placed, L.LogicalFilter)
        assert isinstance(placed.child, L.LogicalReqSync)
        assert isinstance(placed.child.child, L.LogicalCrossProduct)
        plan = lower(placed, engine.config, AsyncContext(engine.pump))
        rows = sorted((row[0], row[-1]) for row in collect(plan))
        assert rows == sorted(engine.execute(self.SQL, mode="sync").rows)
        assert len(rows) > 0
