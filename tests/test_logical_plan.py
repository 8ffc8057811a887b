"""Unit tests for the logical algebra (layer 1 of the planning stack)."""

import pytest

from repro.plan import logical as L
from repro.relational.expr import ColumnRef
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.sql.parser import parse_select
from repro.util.errors import PlanError

Q1 = (
    "Select Name, Count From States, WebCount Where Name = T1 "
    "Order By Count Desc"
)
Q_STORED = "Select Name, Population From States Order By Population Desc"


def _logical(engine, sql):
    return engine._planner.plan_logical(parse_select(sql))


def _async_count(engine):
    """An asynchronous WebCount scan: [SearchExp, T1, Count]."""
    instance = engine.vtables["WebCount"].instantiate("WC", n=1)
    return L.LogicalVTableScan(instance, asynchronous=True)


def _project(child, indexes):
    columns = [Column("c{}".format(i), DataType.STR) for i in indexes]
    return L.LogicalProject(child, [ColumnRef(i) for i in indexes], Schema(columns))


#: The filled attribute set A_i of small hand-built trees.
FILLED = {
    "async_scan_filled": (_async_count, {2}),
    "reqsync_masks_below": (lambda e: L.LogicalReqSync(_async_count(e)), set()),
    "join_offsets_right_side": (
        lambda e: L.LogicalDependentJoin(
            L.LogicalScan(e.database.table("Sigs"), "Sigs"),
            _async_count(e),
            {"T1": 0},
        ),
        {3},  # 1 (left) + 2
    ),
    "project_remaps": (lambda e: _project(_async_count(e), [2, 1]), {0}),
    "project_dropping_filled_column": (
        lambda e: _project(_async_count(e), [1]),
        set(),
    ),
}


class TestStructure:
    def test_children_and_slots_agree(self, engine):
        for node in L.walk(_logical(engine, Q1)):
            slots = [
                getattr(node, slot)
                for slot in ("child", "left", "right")
                if getattr(node, slot, None) is not None
            ]
            if slots:
                assert tuple(slots) == tuple(node.children)

    def test_every_node_carries_schema(self, engine):
        for node in L.walk(_logical(engine, Q1)):
            assert node.schema is not None
            assert len(node.schema) >= 1

    def test_node_count_matches_walk(self, engine):
        root = _logical(engine, Q1)
        assert L.node_count(root) == sum(1 for _ in L.walk(root))

    def test_contains_external_scan(self, engine):
        assert L.contains_external_scan(_logical(engine, Q1))
        assert not L.contains_external_scan(_logical(engine, Q_STORED))

    def test_replace_child_rejects_stranger(self, engine):
        root = _logical(engine, Q1)
        with pytest.raises(PlanError):
            root.replace_child(object(), root.children[0])

    def test_replace_child_refreshes_schema(self, engine):
        """Unary wrappers recompute their schema from the new child."""
        root = _logical(engine, Q1)  # Sort over Project
        child = root.children[0]
        wrapped = L.LogicalReqSync(child)
        root.replace_child(child, wrapped)
        assert list(root.schema.names()) == list(wrapped.schema.names())


class TestPlaceholders:
    def test_sync_tree_has_no_placeholders(self, engine):
        assert L.placeholder_columns(_logical(engine, Q1)) == set()

    @pytest.mark.parametrize("case", sorted(FILLED))
    def test_filled_attribute_set(self, engine, case):
        build, filled = FILLED[case]
        assert L.placeholder_columns(build(engine)) == filled

    def test_async_scan_introduces_result_columns(self, engine):
        from repro.asynciter.rewrite import rewrite_logical

        root, _ = rewrite_logical(_logical(engine, Q1))
        scans = [
            n
            for n in L.walk(root)
            if isinstance(n, L.LogicalVTableScan) and n.asynchronous
        ]
        assert scans
        assert L.placeholder_columns(scans[0])

    def test_reqsync_resolves_everything(self, engine):
        from repro.asynciter.rewrite import rewrite_logical

        root, _ = rewrite_logical(_logical(engine, Q1))
        syncs = [n for n in L.walk(root) if isinstance(n, L.LogicalReqSync)]
        assert syncs
        for sync in syncs:
            assert L.placeholder_columns(sync) == set()
            assert L.placeholder_columns(sync.child)

    def test_schemas_stay_consistent_after_rewrite(self, engine):
        """Regression: percolation must refresh ancestor schemas (the
        grandparent used to keep the pre-swap schema)."""
        from repro.asynciter.rewrite import rewrite_logical

        root, _ = rewrite_logical(_logical(engine, Q1))
        for node in L.walk(root):
            if isinstance(
                node,
                (
                    L.LogicalSort,
                    L.LogicalReqSync,
                    L.LogicalFilter,
                    L.LogicalDistinct,
                    L.LogicalLimit,
                ),
            ):
                assert list(node.schema.names()) == list(
                    node.children[0].schema.names()
                )


class TestLiftLower:
    def test_render_matches_explain_indentation(self, engine):
        root = _logical(engine, Q1)
        lines = L.render(root).splitlines()
        assert len(lines) == L.node_count(root)
        assert lines[0] == root.label()
        assert all(line.startswith("") for line in lines)
