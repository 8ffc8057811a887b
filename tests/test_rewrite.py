"""The ReqSync placement algorithm: paper Figures 3, 6, 7, 8 and clash rules."""

import pytest

from repro.asynciter.aevscan import AEVScan
from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import default_pump
from repro.asynciter.reqsync import ReqSync
from repro.asynciter.rewrite import apply_asynchronous_iteration, filled_columns
from repro.config import EngineConfig
from repro.exec import DependentJoin, Project, TableScan
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType


def context():
    return AsyncContext(default_pump())


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
    sync_plan = engine.plan(sql, mode="sync")
    return apply_asynchronous_iteration(
        sync_plan, context(), EngineConfig.resolve(**settings)
    )


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
        plan = rewrite_sql(
            engine,
            "Select S.URL From Sigs, WebPages S, CSFields, WebPages_AV C "
            "Where Sigs.Name = S.T1 and CSFields.Name = C.T1 and "
            "S.Rank <= 5 and C.Rank <= 5 and S.URL = C.URL",
        )
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

    def test_sort_pull_with_order_preservation_extension(self, engine):
        """With the extension enabled, ReqSync rises above a Sort whose
        keys are not filled, switching to ordered emission."""
        # The projection must keep every filled attribute (URL, Rank, AND
        # Date) or clash rule 2 pins the ReqSync below it.
        sql = (
            "Select Name, URL, Rank, Date From States, WebPages "
            "Where Name = T1 and Rank <= 2 Order By Name"
        )
        baseline = rewrite_sql(engine, sql)
        base_shape = [s.lstrip(".") for s in plan_shape(baseline)]
        assert base_shape.index("Sort") < base_shape.index("ReqSync")

        extended = rewrite_sql(engine, sql, pull_above_order_sensitive=True)
        ext_shape = [s.lstrip(".") for s in plan_shape(extended)]
        assert ext_shape.index("ReqSync") < ext_shape.index("Sort")
        reqsync = extended if isinstance(extended, ReqSync) else None
        node = extended
        while not isinstance(node, ReqSync):
            node = node.children[0]
        assert node.preserve_order

    def test_order_preserving_pull_results_still_sorted(self, engine):
        sql = (
            "Select Name, URL, Rank From States, WebPages "
            "Where Name = T1 and Rank <= 2 Order By Name, Rank"
        )
        expected = engine.execute(sql, mode="sync").rows
        plan = rewrite_sql(engine, sql, pull_above_order_sensitive=True)
        from repro.exec import collect

        assert collect(plan) == expected


class TestFilledColumns:
    def test_aevscan_filled(self, engine):
        instance = engine.vtables["WebCount"].instantiate("WC", n=1)
        scan = AEVScan(instance, context())
        assert filled_columns(scan) == {2}  # Count of [SearchExp, T1, Count]

    def test_reqsync_masks_below(self, engine):
        instance = engine.vtables["WebCount"].instantiate("WC", n=1)
        scan = AEVScan(instance, context())
        assert filled_columns(ReqSync(scan, context())) == set()

    def test_join_offsets_right_side(self, engine):
        instance = engine.vtables["WebCount"].instantiate("WC", n=1)
        scan = AEVScan(instance, context())
        left = TableScan(engine.database.table("Sigs"), "Sigs")
        join = DependentJoin(left, scan, {"T1": 0})
        assert filled_columns(join) == {3}  # 1 (left) + 2

    def test_project_remaps(self, engine):
        from repro.relational.expr import ColumnRef

        instance = engine.vtables["WebCount"].instantiate("WC", n=1)
        scan = AEVScan(instance, context())
        schema = Schema([Column("c", DataType.INT), Column("t", DataType.STR)], True)
        project = Project(scan, [ColumnRef(2), ColumnRef(1)], schema)
        assert filled_columns(project) == {0}

    def test_project_dropping_filled_column(self, engine):
        from repro.relational.expr import ColumnRef

        instance = engine.vtables["WebCount"].instantiate("WC", n=1)
        scan = AEVScan(instance, context())
        schema = Schema([Column("t", DataType.STR)])
        project = Project(scan, [ColumnRef(1)], schema)
        assert filled_columns(project) == set()


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

    @pytest.mark.parametrize("sql", QUERIES[:3])
    def test_streaming_mode_same_rows(self, engine, sql):
        from repro.exec import collect

        sync_rows = engine.execute(sql, mode="sync").rows
        plan = rewrite_sql(engine, sql, stream=True)
        assert sorted(collect(plan), key=repr) == sorted(sync_rows, key=repr)


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
