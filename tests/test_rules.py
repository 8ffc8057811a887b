"""Unit tests for the rule engine and its rules (layer 2 of the stack)."""

from repro.asynciter.rewrite import rewrite_logical
from repro.config import EngineConfig
from repro.obs import Observability, validate_trace_events
from repro.obs.trace import PLAN_RULE_FIRED
from repro.plan import logical as L
from repro.plan import rules as R
from repro.plan.physical import lower
from repro.plan.planner import Planner
from repro.relational.types import DataType
from repro.sql.parser import parse_select
from repro.storage import Database
from repro.exec import collect
from repro.wsq import WsqEngine

Q1 = (
    "Select Name, Count From States, WebCount Where Name = T1 "
    "Order By Count Desc"
)
Q_TWO_VTABLES = (
    "Select Capital, C.Count, Name, S.Count From States, WebCount C, "
    "WebCount S Where Capital = C.T1 and Name = S.T1"
)
Q_SORT_LOCAL_KEY = (
    "Select Name, Count From States, WebCount Where Name = T1 Order By Name"
)


def _logical(engine, sql):
    return engine._planner.plan_logical(parse_select(sql))


def _kinds(root):
    return [type(n).__name__ for n in L.walk(root)]


class TestEngineMechanics:
    def test_firings_record_node_counts(self, engine):
        _, firings = rewrite_logical(_logical(engine, Q1))
        assert firings
        assert firings[0].rule == "reqsync.insert"
        # Insertion adds exactly one node (the ReqSync cap).
        assert firings[0].after_nodes == firings[0].before_nodes + 1
        for firing in firings:
            payload = firing.as_dict()
            assert set(payload) == {"rule", "before_nodes", "after_nodes"}

    def test_fire_budget_bounds_the_run(self, engine):
        node = _logical(engine, Q1)
        rules_engine = R.RuleEngine(
            R.reqsync_pack(EngineConfig()),
            settings=EngineConfig(),
            fire_budget=1,
        )
        rules_engine.run(node)
        per_rule = {}
        for firing in rules_engine.firings:
            per_rule[firing.rule] = per_rule.get(firing.rule, 0) + 1
        assert per_rule
        assert max(per_rule.values()) == 1

    def test_budget_exhaustion_is_reported(self, engine):
        node = _logical(engine, Q_TWO_VTABLES)
        rules_engine = R.RuleEngine(
            R.reqsync_pack(EngineConfig()),
            settings=EngineConfig(),
            fire_budget=1,
        )
        rules_engine.run(node)
        assert "reqsync.insert" in rules_engine.exhausted

    def test_fixed_point_is_idempotent(self, engine):
        root, first = rewrite_logical(_logical(engine, Q1))
        again, second = rewrite_logical(root)
        assert not second
        assert again == root


class TestReqSyncPack:
    def test_consolidation_merges_adjacent_reqsyncs(self, engine):
        root, _ = rewrite_logical(_logical(engine, Q_TWO_VTABLES))
        assert _kinds(root).count("LogicalReqSync") == 1

    def test_consolidate_off_keeps_both(self, engine):
        root, _ = rewrite_logical(
            _logical(engine, Q_TWO_VTABLES), EngineConfig(consolidate=False)
        )
        assert _kinds(root).count("LogicalReqSync") == 2

    def test_sort_on_filled_key_blocks_percolation(self, engine):
        root, _ = rewrite_logical(_logical(engine, Q1))
        assert isinstance(root, L.LogicalSort)
        assert isinstance(root.children[0], L.LogicalReqSync)

    def test_pull_above_sort_sets_preserve_order(self, engine):
        root, firings = rewrite_logical(
            _logical(engine, Q_SORT_LOCAL_KEY),
            EngineConfig(pull_above_order_sensitive=True),
        )
        assert isinstance(root, L.LogicalReqSync)
        assert root.preserve_order
        assert "reqsync.pull_above_sort" in {f.rule for f in firings}

    def test_without_extension_sort_stays_on_top(self, engine):
        root, _ = rewrite_logical(_logical(engine, Q_SORT_LOCAL_KEY))
        assert isinstance(root, L.LogicalSort)


class TestObservabilityWiring:
    def test_rule_firings_traced_and_counted(self, paper_db, web):
        obs = Observability.enabled()
        eng = WsqEngine(database=paper_db, web=web, obs=obs)
        eng.plan(Q1, mode="async")
        events = [
            e for e in obs.tracer.events() if e.name == PLAN_RULE_FIRED
        ]
        assert events, "no plan.rule_fired events traced"
        assert validate_trace_events(events) == []
        for event in events:
            assert event.args["rule"].startswith("reqsync.")
            assert event.args["before_nodes"] >= 1
            assert event.args["after_nodes"] >= 1
        fired = sum(
            eng.metrics.counter_value(
                "planner.rules_fired", rule=e.args["rule"]
            )
            >= 1
            for e in events
        )
        assert fired == len(events)

    def test_unregistered_event_name_is_flagged(self):
        problems = validate_trace_events([{"name": "plan.bogus", "args": {}}])
        assert problems and "unregistered" in problems[0]

    def test_missing_required_args_flagged(self):
        problems = validate_trace_events(
            [{"name": PLAN_RULE_FIRED, "args": {"rule": "x"}}]
        )
        assert any("before_nodes" in p for p in problems)
        assert any("after_nodes" in p for p in problems)


def _stored_db():
    db = Database()
    db.create_table_from_rows(
        "T",
        [("Name", DataType.STR), ("N", DataType.INT)],
        [("ada", 1), ("bob", 2), ("cy", 3), ("dee", 4)],
    )
    db.create_table_from_rows(
        "U", [("Name", DataType.STR), ("N", DataType.INT)], [("ada", 9), ("cy", 7)]
    )
    return db


def _plan(db, sql, optimized=True):
    planner = Planner(db)
    node = planner.plan_logical(parse_select(sql))
    firings = []
    if optimized:
        node, firings = planner.optimize(node)
    return sorted(collect(lower(node, planner.options))), {f.rule for f in firings}


class TestRelationalPipeline:
    def test_prune_removes_identity_projection(self):
        db = _stored_db()
        sql = "Select Name, N From T"
        rows, fired = _plan(db, sql)
        assert "prune.identity_project" in fired
        assert rows == _plan(db, sql, optimized=False)[0]

    def test_all_packs_compose(self):
        db = _stored_db()
        sql = "Select T.Name, U.N From T, U Where T.Name = U.Name and T.N > 1"
        assert _plan(db, sql)[0] == _plan(db, sql, optimized=False)[0]
