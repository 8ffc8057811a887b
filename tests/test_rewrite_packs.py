"""Soundness suite for the relational pipeline ``Planner.optimize`` runs.

Three layers of guarantees, one per test class group:

- **Oracles** — every optimized plan returns exactly the rows of the
  unoptimized one (``lower(plan_logical(q))``), across sync/async modes
  and cache on/off.
- **Guards** — each rule provably does NOT fire where firing would be
  unsound, with one regression case per guard (including a cost-gate
  refusal per rule: ``matches()`` True, firing refused by the model).
- **Reachability** — every rule in the pipeline fires on at least one
  SQL statement, so a rule SQL can no longer reach fails CI instead of
  accreting.
"""

import pytest
from test_plan_goldens import PACK_TEMPLATES

from repro.exec import collect
from repro.obs import Observability, validate_trace_events
from repro.obs.trace import PLAN_RULE_FIRED
from repro.plan import logical as L
from repro.plan import rules as R
from repro.plan.physical import lower
from repro.plan.planner import Planner
from repro.relational.expr import (
    ColumnRef,
    Comparison,
    Disjunction,
    InSubqueryPredicate,
    Literal,
)
from repro.relational.types import DataType
from repro.sql.parser import parse_select
from repro.storage import Database
from repro.web.cache import make_cache
from repro.wsq import WsqEngine


def _pack_db(rows=400, indexes=True):
    """Deterministic stored tables big enough for the cost gates to bite."""
    db = Database()
    db.create_table_from_rows(
        "T",
        [("A", DataType.INT), ("B", DataType.INT), ("Name", DataType.STR)],
        [(i, i % 7, "n{}".format(i % 11)) for i in range(rows)],
    )
    db.create_table_from_rows(
        "S", [("X", DataType.INT)], [(i,) for i in range(0, rows, 3)]
    )
    if indexes:
        db.create_index("T", "A")
        db.create_index("T", "B")
    db.analyze()
    return db


@pytest.fixture(scope="module")
def pack_db():
    """Shared read-only corpus (module scope: tests never mutate it)."""
    return _pack_db()


def _optimize(db, sql):
    planner = Planner(db)
    node, firings = planner.optimize(planner.plan_logical(parse_select(sql)))
    return node, {f.rule for f in firings}


def _unoptimized_rows(db, sql):
    """The reference: the planner's tree lowered with no rule run."""
    planner = Planner(db)
    return sorted(
        collect(lower(planner.plan_logical(parse_select(sql)), planner.options))
    )


def _rows(db, sql, **kwargs):
    mode = kwargs.pop("mode", "async")
    engine = WsqEngine(database=db, **kwargs)
    return sorted(engine.execute(sql, mode=mode).rows)


#: (rule family, its headline query over ``_pack_db()``) — the corpus
#: the plan goldens snapshot.
PACK_QUERIES = [(name[len("pack_"):], sql) for name, sql in PACK_TEMPLATES]

#: The rule each family's headline query is expected to fire.
PACK_FIRES = {
    "decorrelate": "decorrelate.in_to_join",
    "or_to_union": "or_to_union.split_disjunction",
    "early_filter": "early_filter.derive_join_filter",
    "agg_single_pass": "agg_single_pass.drop_distinct",
}


class TestPackOracles:
    """Optimized must equal unoptimized everywhere the engine can run."""

    @pytest.mark.parametrize("pack,sql", PACK_QUERIES, ids=[p for p, _ in PACK_QUERIES])
    def test_representative_query_fires(self, pack_db, pack, sql):
        _, fired = _optimize(pack_db, sql)
        assert PACK_FIRES[pack] in fired

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("pack,sql", PACK_QUERIES, ids=[p for p, _ in PACK_QUERIES])
    def test_equivalence_across_modes(self, pack_db, pack, sql, mode):
        assert _rows(pack_db, sql, mode=mode) == _unoptimized_rows(pack_db, sql)

    @pytest.mark.parametrize("pack,sql", PACK_QUERIES, ids=[p for p, _ in PACK_QUERIES])
    def test_equivalence_with_memory_cache(self, pack_db, pack, sql):
        actual = _rows(pack_db, sql, cache=make_cache(tier="memory"))
        assert actual == _unoptimized_rows(pack_db, sql)

    def test_all_packs_compose(self, pack_db):
        # One statement three rule families rewrite at once.
        sql = (
            "Select Distinct B, Count(A) From T, S Where T.A = S.X "
            "and S.X > 300 and T.A In (Select X From S) Group By B"
        )
        _, fired = _optimize(pack_db, sql)
        assert {
            "decorrelate.in_to_join",
            "early_filter.derive_join_filter",
            "agg_single_pass.drop_distinct",
        } <= fired
        assert _rows(pack_db, sql) == _unoptimized_rows(pack_db, sql)

    def test_firings_traced_and_schema_valid(self, pack_db):
        obs = Observability.enabled()
        engine = WsqEngine(database=pack_db, obs=obs)
        for _, sql in PACK_QUERIES:
            engine.execute(sql)
        events = [e for e in obs.tracer.events() if e.name == PLAN_RULE_FIRED]
        assert validate_trace_events(events) == []
        fired = {e.args["rule"] for e in events}
        assert set(PACK_FIRES.values()) <= fired
        for event in events:
            assert event.args["after_nodes"] >= 1
            assert event.args["before_nodes"] >= 1


class TestDecorrelateGuards:
    def test_not_in_never_rewritten(self, pack_db):
        sql = "Select A From T Where A Not In (Select X From S)"
        _, fired = _optimize(pack_db, sql)
        assert "decorrelate.in_to_join" not in fired
        assert _rows(pack_db, sql) == _unoptimized_rows(pack_db, sql)

    def test_type_mismatch_never_rewritten(self, pack_db):
        # IN compares a str probe against int candidates loosely (no
        # matches); a join predicate would raise.  The guard keeps the
        # loose semantics.
        sql = "Select Name From T Where Name In (Select X From S)"
        _, fired = _optimize(pack_db, sql)
        assert "decorrelate.in_to_join" not in fired
        assert _rows(pack_db, sql) == _unoptimized_rows(pack_db, sql)

    def test_non_column_probe_never_rewritten(self, pack_db):
        subplan = Planner(pack_db).plan(parse_select("Select X From S"))
        scan = L.LogicalScan(pack_db.table("T"))
        probe = Literal(3)  # not a bare ColumnRef
        node = L.LogicalFilter(scan, InSubqueryPredicate(probe, subplan))
        assert not R.DecorrelateInToJoin().matches(node, None)

    def test_wide_subquery_never_rewritten(self, pack_db):
        subplan = Planner(pack_db).plan(parse_select("Select X, X From S"))
        scan = L.LogicalScan(pack_db.table("T"))
        node = L.LogicalFilter(
            scan, InSubqueryPredicate(ColumnRef(0), subplan)
        )
        assert not R.DecorrelateInToJoin().matches(node, None)

    def test_external_subplan_never_rewritten(self, pack_db, engine):
        # A join build would re-evaluate the subquery's external calls.
        subplan = engine.plan(
            "Select Count From States, WebCount Where Name = T1", mode="sync"
        )
        assert len(L.lift(subplan).schema) == 1
        scan = L.LogicalScan(pack_db.table("T"))
        node = L.LogicalFilter(
            scan, InSubqueryPredicate(ColumnRef(0), subplan)
        )
        assert not R.DecorrelateInToJoin().matches(node, None)

    def test_cost_gate_refuses_on_tiny_tables(self):
        # Regression: eligible shape, but the model prices the join
        # build above the four-probe scan, so the gate must refuse.
        db = _pack_db(rows=4, indexes=False)
        sql = "Select A From T Where A In (Select X From S)"
        planner = Planner(db)
        root = planner.plan_logical(parse_select(sql))
        target = next(
            n for n in L.walk(root) if isinstance(n, L.LogicalFilter)
        )
        assert R.DecorrelateInToJoin().matches(target, None)
        _, fired = _optimize(db, sql)
        assert "decorrelate.in_to_join" not in fired


class TestOrToUnionGuards:
    def test_overlapping_windows_never_split(self, pack_db):
        sql = "Select A From T Where B = 1 or B >= 1"
        _, fired = _optimize(pack_db, sql)
        assert "or_to_union.split_disjunction" not in fired
        assert _rows(pack_db, sql) == _unoptimized_rows(pack_db, sql)

    def test_different_columns_never_split(self, pack_db):
        sql = "Select A From T Where A = 1 or B = 2"
        _, fired = _optimize(pack_db, sql)
        assert "or_to_union.split_disjunction" not in fired
        assert _rows(pack_db, sql) == _unoptimized_rows(pack_db, sql)

    def test_impure_disjunct_never_split(self, pack_db):
        # Subquery predicates are conservatively impure: re-evaluating
        # them once per branch is not provably free.
        sql = "Select A From T Where B = 1 or A In (Select X From S)"
        _, fired = _optimize(pack_db, sql)
        assert "or_to_union.split_disjunction" not in fired
        assert _rows(pack_db, sql) == _unoptimized_rows(pack_db, sql)

    def test_null_and_bool_literals_are_not_windows(self):
        null_term = Comparison("=", ColumnRef(0), Literal(None))
        bool_term = Comparison("=", ColumnRef(0), Literal(True))
        assert R._term_bound(null_term) is None
        assert R._term_bound(bool_term) is None
        assert (
            R._disjoint_windows(
                Disjunction([null_term, Comparison("=", ColumnRef(0), Literal(1))])
            )
            is None
        )

    def test_external_child_never_cloned(self, engine):
        # Splitting clones the input per branch; cloning an external
        # scan would multiply web calls.
        lifted = L.lift(
            engine.plan(
                "Select Count From States, WebCount Where Name = T1",
                mode="sync",
            )
        )
        assert any(
            isinstance(n, L.LogicalVTableScan) for n in L.walk(lifted)
        )
        node = L.LogicalFilter(
            lifted,
            Disjunction(
                [
                    Comparison("=", ColumnRef(0), Literal(1)),
                    Comparison("=", ColumnRef(0), Literal(3)),
                ]
            ),
        )
        assert not R.SplitDisjunctionToUnion().matches(node, None)

    def test_cost_gate_refuses_without_index(self):
        # Regression: provably disjoint windows, but no index to narrow
        # the branches — three full scans lose to one, gate refuses.
        db = _pack_db(indexes=False)
        sql = "Select A From T Where B = 1 or B = 3 or B = 5"
        planner = Planner(db)
        root = planner.plan_logical(parse_select(sql))
        target = next(
            n for n in L.walk(root) if isinstance(n, L.LogicalFilter)
        )
        assert R.SplitDisjunctionToUnion().matches(target, None)
        _, fired = _optimize(db, sql)
        assert "or_to_union.split_disjunction" not in fired


class TestEarlyFilterGuards:
    def test_derivations_fire_once_per_constraint(self, pack_db):
        sql = "Select T.A From T, S Where T.A = S.X and S.X > 300"
        planner = Planner(pack_db)
        node, firings = planner.optimize(
            planner.plan_logical(parse_select(sql))
        )
        derived = [
            f for f in firings if f.rule == "early_filter.derive_join_filter"
        ]
        assert len(derived) == 1  # remembered, not re-derived forever

    def test_cost_gate_refuses_non_selective_derivation(self):
        # Regression: X >= 0 keeps every S row; deriving A >= 0 onto an
        # unindexed T adds an operator and saves nothing.
        db = _pack_db(indexes=False)
        sql = "Select T.A From T, S Where T.A = S.X and S.X >= 0"
        planner = Planner(db)
        root = planner.plan_logical(parse_select(sql))
        join = next(n for n in L.walk(root) if isinstance(n, L.LogicalJoin))
        assert R.DeriveJoinConstraint().matches(join, None)
        _, fired = _optimize(db, sql)
        assert "early_filter.derive_join_filter" not in fired


class TestAggSinglePassGuards:
    def test_distinct_kept_when_group_column_projected_away(self, pack_db):
        # Counts collide across groups once B is projected away, so the
        # DISTINCT is load-bearing.
        sql = "Select Distinct Count(A) From T Group By B"
        node, fired = _optimize(pack_db, sql)
        assert "agg_single_pass.drop_distinct" not in fired
        assert any(isinstance(n, L.LogicalDistinct) for n in L.walk(node))
        assert _rows(pack_db, sql) == _unoptimized_rows(pack_db, sql)

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


#: Reachability corpus: the four headline queries plus the two shapes
#: the projection-pruning rules need.
CENSUS_CORPUS = [sql for _, sql in PACK_QUERIES] + [
    "Select * From T",
    "Select Name From T Where A In (Select X From S)",
]


class TestReachability:
    @pytest.fixture(scope="class")
    def census(self, pack_db):
        fired = set()
        for sql in CENSUS_CORPUS:
            fired |= _optimize(pack_db, sql)[1]
        return fired

    @pytest.mark.parametrize(
        "rule", R.RELATIONAL_PIPELINE, ids=[r.name for r in R.RELATIONAL_PIPELINE]
    )
    def test_every_pipeline_rule_fires_from_sql(self, census, rule):
        assert rule.name in census
