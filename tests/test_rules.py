"""Unit tests for ReqSync placement (layer 2 of the stack)."""

from repro.asynciter.rewrite import rewrite_logical
from repro.obs import Observability, validate_trace_events
from repro.obs.trace import PLAN_RULE_FIRED
from repro.plan import logical as L
from repro.sql.parser import parse_select
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
# Both selections read Count, which the ReqSync fills: the join becomes a
# selection over a cross-product right under the hoisted ``Count > 5``.
Q_TWO_CLASHING_SELECTIONS = (
    "Select States.Name, Count, S2.Name From States, WebCount, States S2 "
    "Where States.Name = T1 and Count < S2.Population and Count > 5"
)


class _FiringCap:
    """A metrics registry that stops a placement run after *limit* steps."""

    def __init__(self, limit):
        self.limit = limit
        self.fired = 0

    def inc(self, name, **labels):
        self.fired += 1
        if self.fired > self.limit:
            raise AssertionError(
                "placement still firing after {} steps".format(self.limit)
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

    def test_fixed_point_is_idempotent(self, engine):
        root, first = rewrite_logical(_logical(engine, Q1))
        again, second = rewrite_logical(root)
        assert not second
        assert again == root


class TestReqSyncPack:
    def test_consolidation_merges_adjacent_reqsyncs(self, engine):
        root, _ = rewrite_logical(_logical(engine, Q_TWO_VTABLES))
        assert _kinds(root).count("LogicalReqSync") == 1

    def test_sort_on_filled_key_blocks_percolation(self, engine):
        root, _ = rewrite_logical(_logical(engine, Q1))
        assert isinstance(root, L.LogicalSort)
        assert isinstance(root.children[0], L.LogicalReqSync)

    def test_without_extension_sort_stays_on_top(self, engine):
        # Completion-order emission would scramble the sort, so ReqSync
        # stays below it even when no key is filled.
        root, _ = rewrite_logical(_logical(engine, Q_SORT_LOCAL_KEY))
        assert isinstance(root, L.LogicalSort)


class TestTermination:
    def test_clashing_selections_do_not_trade_places(self, engine):
        root, firings = rewrite_logical(
            _logical(engine, Q_TWO_CLASHING_SELECTIONS), metrics=_FiringCap(100)
        )
        assert [f.rule for f in firings] == [
            "reqsync.insert",
            "reqsync.percolate_depjoin",
            "reqsync.hoist_selection",
            "reqsync.join_to_selection",
            "reqsync.percolate_product",
        ]
        assert _kinds(root)[:4] == [
            "LogicalProject",
            "LogicalFilter",
            "LogicalFilter",
            "LogicalReqSync",
        ]

    def test_clashing_selections_return_the_sync_rows(self, engine):
        sync_rows = engine.execute(Q_TWO_CLASHING_SELECTIONS, mode="sync").rows
        async_rows = engine.execute(Q_TWO_CLASHING_SELECTIONS, mode="async").rows
        assert sync_rows
        assert sorted(async_rows) == sorted(sync_rows)


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
