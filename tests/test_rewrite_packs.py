"""Soundness suite for the GOLD-style opt-in rewrite packs.

Four layers of guarantees, one per test class group:

- **Oracles** — every pack-on plan returns exactly the pack-off rows,
  across sync/async modes and cache on/off.
- **Guards** — each pack provably does NOT fire where firing would be
  unsound, with one regression case per guard (including a cost-gate
  refusal per pack: ``matches()`` True, firing refused by the model).
- **Default identity** — with no packs configured (the default) the
  optimizer is the identity and plans are byte-identical to the seed's.
- **Knob threading** — ``rules=`` kwarg / ``EngineConfig`` /
  ``$REPRO_RULES`` / CLI ``--rules`` resolve with the documented
  precedence.
"""

import pytest

from repro.config import EngineConfig
from repro.exec.aggregate import AggregateSpec
from repro.obs import Observability, validate_trace_events
from repro.obs.trace import PLAN_RULE_FIRED
from repro.plan import logical as L
from repro.plan import rules as R
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
from repro.util.errors import PlanError
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
    """Shared read-only pack corpus (module scope: tests never mutate it)."""
    return _pack_db()


def _optimize(db, sql, packs):
    planner = Planner(db, options=EngineConfig.resolve(rules=tuple(packs)))
    node, firings = planner.optimize(planner.plan_logical(parse_select(sql)))
    return node, {f.rule for f in firings}


def _rows(db, sql, rules=(), **kwargs):
    mode = kwargs.pop("mode", "async")
    engine = WsqEngine(database=db, rules=rules, **kwargs)
    return sorted(engine.execute(sql, mode=mode).rows)


#: (pack, representative query that fires it over ``_pack_db()``).
PACK_QUERIES = [
    ("decorrelate", "Select A From T Where A In (Select X From S)"),
    ("or_to_union", "Select A, Name From T Where B = 1 or B = 3 or B = 5"),
    ("early_filter", "Select T.A From T, S Where T.A = S.X and S.X > 300"),
    ("agg_single_pass", "Select Distinct B, Count(A) From T Group By B"),
]

#: The rule each pack's representative query is expected to fire.
PACK_FIRES = {
    "decorrelate": "decorrelate.in_to_join",
    "or_to_union": "or_to_union.split_disjunction",
    "early_filter": "early_filter.derive_join_filter",
    "agg_single_pass": "agg_single_pass.drop_distinct",
}


class TestPackOracles:
    """Pack-on must equal pack-off everywhere the engine can run."""

    @pytest.mark.parametrize("pack,sql", PACK_QUERIES, ids=[p for p, _ in PACK_QUERIES])
    def test_representative_query_fires(self, pack_db, pack, sql):
        _, fired = _optimize(pack_db, sql, (pack,))
        assert PACK_FIRES[pack] in fired

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("pack,sql", PACK_QUERIES, ids=[p for p, _ in PACK_QUERIES])
    def test_equivalence_across_modes(self, pack_db, pack, sql, mode):
        expected = _rows(pack_db, sql, rules=(), mode=mode)
        actual = _rows(pack_db, sql, rules=(pack,), mode=mode)
        assert actual == expected

    @pytest.mark.parametrize("pack,sql", PACK_QUERIES, ids=[p for p, _ in PACK_QUERIES])
    def test_equivalence_with_memory_cache(self, pack_db, pack, sql):
        expected = _rows(pack_db, sql, rules=(), cache=make_cache(tier="memory"))
        actual = _rows(pack_db, sql, rules=(pack,), cache=make_cache(tier="memory"))
        assert actual == expected

    def test_all_packs_compose(self, pack_db):
        for _, sql in PACK_QUERIES:
            assert _rows(pack_db, sql, rules="all") == _rows(pack_db, sql)

    def test_firings_traced_and_schema_valid(self, pack_db):
        obs = Observability.enabled()
        engine = WsqEngine(database=pack_db, rules="all", obs=obs)
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
        _, fired = _optimize(pack_db, sql, ("decorrelate",))
        assert not fired
        assert _rows(pack_db, sql, rules=("decorrelate",)) == _rows(pack_db, sql)

    def test_type_mismatch_never_rewritten(self, pack_db):
        # IN compares a str probe against int candidates loosely (no
        # matches); a join predicate would raise.  The guard keeps the
        # loose semantics.
        sql = "Select Name From T Where Name In (Select X From S)"
        _, fired = _optimize(pack_db, sql, ("decorrelate",))
        assert not fired
        assert _rows(pack_db, sql, rules=("decorrelate",)) == _rows(pack_db, sql)

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
        _, fired = _optimize(db, sql, ("decorrelate",))
        assert not fired


class TestOrToUnionGuards:
    def test_overlapping_windows_never_split(self, pack_db):
        sql = "Select A From T Where B = 1 or B >= 1"
        _, fired = _optimize(pack_db, sql, ("or_to_union",))
        assert not fired
        assert _rows(pack_db, sql, rules=("or_to_union",)) == _rows(pack_db, sql)

    def test_different_columns_never_split(self, pack_db):
        sql = "Select A From T Where A = 1 or B = 2"
        _, fired = _optimize(pack_db, sql, ("or_to_union",))
        assert not fired
        assert _rows(pack_db, sql, rules=("or_to_union",)) == _rows(pack_db, sql)

    def test_impure_disjunct_never_split(self, pack_db):
        # Subquery predicates are conservatively impure: re-evaluating
        # them once per branch is not provably free.
        sql = "Select A From T Where B = 1 or A In (Select X From S)"
        _, fired = _optimize(pack_db, sql, ("or_to_union",))
        assert "or_to_union.split_disjunction" not in fired
        assert _rows(pack_db, sql, rules=("or_to_union",)) == _rows(pack_db, sql)

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
        _, fired = _optimize(db, sql, ("or_to_union",))
        assert not fired


class TestEarlyFilterGuards:
    def test_impure_conjunct_never_pushed(self, pack_db):
        subplan = Planner(pack_db).plan(parse_select("Select X From S"))
        product = L.LogicalCrossProduct(
            L.LogicalScan(pack_db.table("T")), L.LogicalScan(pack_db.table("S"))
        )
        node = L.LogicalFilter(
            product, InSubqueryPredicate(ColumnRef(0), subplan)
        )
        assert not R.PushFilterBelowJoin().matches(node, None)

    def test_dependent_join_inner_side_never_receives_pushes(self, pack_db):
        depjoin = L.LogicalDependentJoin(
            L.LogicalScan(pack_db.table("T")),
            L.LogicalScan(pack_db.table("S")),
            {},
        )
        inner_only = L.LogicalFilter(
            depjoin, Comparison(">", ColumnRef(3), Literal(100))
        )
        assert not R.PushFilterBelowJoin().matches(inner_only, None)
        # Positive control: the same conjunct on the outer side is
        # eligible (fewer outer rows = fewer external calls).
        outer = L.LogicalFilter(
            depjoin, Comparison(">", ColumnRef(0), Literal(100))
        )
        assert R.PushFilterBelowJoin().matches(outer, None)

    def test_derivations_fire_once_per_constraint(self, pack_db):
        sql = "Select T.A From T, S Where T.A = S.X and S.X > 300"
        planner = Planner(
            pack_db, options=EngineConfig.resolve(rules=("early_filter",))
        )
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
        _, fired = _optimize(db, sql, ("early_filter",))
        assert not fired


class TestAggSinglePassGuards:
    def test_distinct_kept_when_group_column_projected_away(self, pack_db):
        # Counts collide across groups once B is projected away, so the
        # DISTINCT is load-bearing.
        sql = "Select Distinct Count(A) From T Group By B"
        node, fired = _optimize(pack_db, sql, ("agg_single_pass",))
        assert "agg_single_pass.drop_distinct" not in fired
        assert any(isinstance(n, L.LogicalDistinct) for n in L.walk(node))
        assert _rows(pack_db, sql, rules=("agg_single_pass",)) == _rows(
            pack_db, sql
        )

    def test_sort_kept_below_float_sum(self):
        db = Database()
        db.create_table_from_rows(
            "F",
            [("K", DataType.INT), ("V", DataType.FLOAT)],
            [(i, i * 0.1) for i in range(8)],
        )
        scan = L.LogicalScan(db.table("F"))
        sort = L.LogicalSort(scan, [(ColumnRef(1), False)])
        float_sum = L.LogicalAggregate(
            sort, [], [AggregateSpec("SUM", expr=ColumnRef(1))], sort.schema
        )
        assert not R.SkipSortBelowAggregate().matches(float_sum, None)
        # Positive controls: integer SUM and COUNT(*) are order-exact.
        int_sum = L.LogicalAggregate(
            L.LogicalSort(L.LogicalScan(db.table("F")), [(ColumnRef(1), False)]),
            [],
            [AggregateSpec("SUM", expr=ColumnRef(0))],
            sort.schema,
        )
        assert R.SkipSortBelowAggregate().matches(int_sum, None)
        count = L.LogicalAggregate(
            L.LogicalSort(L.LogicalScan(db.table("F")), [(ColumnRef(1), False)]),
            [],
            [AggregateSpec("COUNT", star=True)],
            sort.schema,
        )
        assert R.SkipSortBelowAggregate().matches(count, None)

    def _union_aggregate(self, db, low_pred, high_pred, annotate=None):
        left = L.LogicalFilter(L.LogicalScan(db.table("T")), low_pred)
        right = L.LogicalFilter(L.LogicalScan(db.table("T")), high_pred)
        union = L.LogicalUnion(left, right)
        if annotate:
            union.annotations[annotate] = True
        return L.LogicalAggregate(
            union, [], [AggregateSpec("COUNT", star=True)], union.schema
        )

    def test_overlapping_union_never_merged(self, pack_db):
        # Overlapping branches feed some rows twice — merging into one
        # disjunctive filter would feed them once and change the counts.
        node = self._union_aggregate(
            pack_db,
            Comparison("<", ColumnRef(0), Literal(100)),
            Comparison("<", ColumnRef(0), Literal(200)),
        )
        assert not R.MergeUnionAggregate().matches(node, None)
        disjoint = self._union_aggregate(
            pack_db,
            Comparison("<", ColumnRef(0), Literal(100)),
            Comparison(">", ColumnRef(0), Literal(200)),
        )
        assert R.MergeUnionAggregate().matches(disjoint, None)

    def test_or_to_union_output_never_remerged(self, pack_db):
        node = self._union_aggregate(
            pack_db,
            Comparison("<", ColumnRef(0), Literal(100)),
            Comparison(">", ColumnRef(0), Literal(200)),
            annotate="or_to_union",
        )
        assert not R.MergeUnionAggregate().matches(node, None)


#: Queries for the default-identity A/B guard: the three Table-1 shapes
#: plus local-only shapes covering every operator the packs touch.
IDENTITY_QUERIES = [
    "Select Name, Count From States, WebCount Where Name = T1 "
    "Order By Count Desc",
    "Select Capital, C.Count, Name, S.Count From States, WebCount C, "
    "WebCount S Where Capital = C.T1 and Name = S.T1",
    "Select Name, URL, Rank From States, WebPages "
    "Where Name = T1 and Rank <= 2 Order By Name, Rank",
    "Select Name From States Order By Name",
    "Select Distinct Capital From States",
    "Select Name From States Where Population > 5000000 or Population < 1000000",
    "Select Count(*) From States",
    "Select Capital, Count(*) From States Group By Capital",
    "Select S.Name From States S, Sigs G Where S.Name = G.Name",
    "Select Name From States Where Name In (Select Name From Sigs)",
]

IDENTITY_SETTINGS = [
    {},
    {"batch_size": 1},
    {"shards": 2},
]


class TestDefaultIdentity:
    """With no packs configured the rewriter must match the seed exactly."""

    def test_optimize_without_packs_is_identity(self, pack_db):
        planner = Planner(pack_db)  # default options: no logical rules
        for _, sql in PACK_QUERIES:
            root = planner.plan_logical(parse_select(sql))
            node, firings = planner.optimize(root)
            assert node is root
            assert firings == []

    @pytest.mark.parametrize(
        "settings",
        IDENTITY_SETTINGS,
        ids=["default", "batch1", "shards2"],
    )
    def test_default_plans_match_rules_off(
        self, paper_db, web, settings, monkeypatch
    ):
        monkeypatch.delenv("REPRO_RULES", raising=False)
        default = WsqEngine(database=paper_db, web=web, **settings)
        explicit_off = WsqEngine(
            database=paper_db, web=web, rules=(), **settings
        )
        assert default.config.rules == ()
        for sql in IDENTITY_QUERIES:
            for form in ("physical", "rules"):
                assert default.explain(sql, form=form) == explicit_off.explain(
                    sql, form=form
                ), (sql, form)


class TestKnobThreading:
    def test_parse_rules_spec(self):
        assert R.parse_rules_spec("") == ()
        assert R.parse_rules_spec(None) == ()
        assert R.parse_rules_spec("decorrelate, or_to_union") == (
            "decorrelate",
            "or_to_union",
        )
        assert R.parse_rules_spec("prune,prune") == ("prune",)
        assert R.parse_rules_spec("all") == tuple(sorted(R.PACKS))
        with pytest.raises(PlanError) as err:
            R.parse_rules_spec("bogus")
        assert "bogus" in str(err.value)

    def test_engine_kwarg_accepts_spec_string(self, pack_db):
        engine = WsqEngine(database=pack_db, rules="decorrelate, early_filter")
        assert engine.config.rules == ("decorrelate", "early_filter")
        assert engine._planner.options.rules == engine.config.rules

    def test_config_path(self, pack_db):
        config = EngineConfig(rules=("agg_single_pass",))
        engine = WsqEngine(database=pack_db, config=config)
        assert engine.config.rules == ("agg_single_pass",)

    def test_kwarg_overrides_config(self, pack_db):
        config = EngineConfig(rules=("prune",))
        engine = WsqEngine(database=pack_db, config=config, rules="reorder")
        assert engine.config.rules == ("reorder",)

    def test_env_default(self, pack_db, monkeypatch):
        monkeypatch.setenv("REPRO_RULES", "or_to_union")
        engine = WsqEngine(database=pack_db)
        assert engine.config.rules == ("or_to_union",)

    def test_kwarg_beats_env(self, pack_db, monkeypatch):
        monkeypatch.setenv("REPRO_RULES", "or_to_union")
        engine = WsqEngine(database=pack_db, rules=())
        assert engine.config.rules == ()

    def test_cli_rules_flag_threads_through(self, pack_db):
        from repro.cli import build_engine

        class Args:
            db = None
            load_datasets = True
            latency = 0.0
            cache = False
            sync = False
            command = None
            rules = "decorrelate,agg_single_pass"

        engine = build_engine(Args())
        assert engine.config.rules == ("decorrelate", "agg_single_pass")

    def test_explain_rules_form_pins_pack_output(self, pack_db):
        engine = WsqEngine(database=pack_db, rules="or_to_union")
        rendered = engine.explain(
            "Select A, Name From T Where B = 1 or B = 3 or B = 5", form="rules"
        )
        assert rendered == "or_to_union.split_disjunction  nodes 3 -> 6"
