"""The statement table is transparent: a hit is the plan a fresh engine builds now.

``WsqEngine`` remembers, per ``(sql text, requested mode)``, the finished
logical tree of a SELECT, stamped with ``Database.generation``.  These
tests hold the contract from every side: a state machine that compares
one long-lived engine with a fresh one after every change, the named
hazards a table without invalidation gets wrong, stored trees shared
unchanged by eight threads, the trace and counters of a hit, and the
table's bound.
"""

import importlib.util
import pathlib
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from test_paper_queries import Q1, Q2, Q3, Q4, Q5, Q6
from test_plan_goldens import PACK_TEMPLATES, TEMPLATES
from test_rewrite_packs import _pack_db

from repro.bench.workloads import template_queries
from repro.datasets import load_all
from repro.obs import Observability
from repro.obs.trace import PLAN_RULE_FIRED
from repro.plan import logical as logical_ir
from repro.plan.cost import CostModel
from repro.relational.types import DataType
from repro.serve import QueryService
from repro.storage import Database
from repro.util.errors import PlanError
from repro.web.corpus import CorpusConfig
from repro.web.world import SimulatedWeb
from repro.wsq import WsqEngine
from repro.wsq.engine import STATEMENT_CAPACITY

OUTCOMES = ("hit", "miss", "stale", "unstored")


def _outcomes(engine):
    return Counter(
        {o: engine.metrics.counter_value("planner.statements", outcome=o) for o in OUTCOMES}
    )


def _moved(engine, before):
    """Outcome counts since *before* (the registry may be process-wide)."""
    return {o: n for o, n in (_outcomes(engine) - before).items() if n}


def _bag(rows):
    return sorted(map(repr, rows))


def _small_db():
    db = load_all(Database())
    db.create_table_from_rows(
        "T",
        [("A", DataType.INT), ("B", DataType.INT), ("Name", DataType.STR)],
        [(i, i % 7, "n{}".format(i % 11)) for i in range(40)],
    )
    db.create_table_from_rows("S", [("X", DataType.INT)], [(i,) for i in range(0, 40, 3)])
    db.create_table_from_rows(
        "Few", [("Name", DataType.STR)], [("Utah",), ("Ohio",), ("Iowa",), ("Texas",)]
    )
    return db


_WEB = []


def _small_web():
    if not _WEB:
        _WEB.append(SimulatedWeb(CorpusConfig.small()))
    return _WEB[0]


def _engine(db, **kwargs):
    """Zero latency, no result cache whatever ``REPRO_CACHE`` says."""
    return WsqEngine(database=db, web=_small_web(), cache=False, **kwargs)


# -- (i) the oracle: one engine against a fresh one, under every kind of change --

STATEMENTS = (
    "Select A, Name From T Where B = 1 or B = 3 or B = 5",
    "Select A From T Where A In (Select X From S)",
    "Select A From T Where A Not In (Select X From S)",
    "Select A From T Where Exists (Select X From S Where X > 30)",
    "Select T.A From T, S Where T.A = S.X and S.X > 10",
    "Select Distinct B, Count(A) From T Group By B",
    "Select A From T Where A < 20 Order By A",
    "Select Name, Count From Few, WebCount Where Name = T1",
    "Select Name, URL, Rank From Few, WebPages Where Name = T1 and Rank <= 2",
)
S_SCHEMAS = (
    [("X", DataType.INT)],
    [("X", DataType.INT), ("Y", DataType.INT)],
    [("Y", DataType.INT)],
)


def _attempt(call, *args, **kwargs):
    try:
        return "rows", _bag(call(*args, **kwargs).rows)
    except PlanError as exc:
        return type(exc).__name__, str(exc)


class StatementTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = _small_db()
        self.engine = _engine(self.db)
        self.s_width = 1
        self.indexes = set()
        self.next_key = 1000

    @invariant()
    def every_statement_matches_a_fresh_engine(self):
        fresh = _engine(self.db, cost_model=self.engine.cost_model)
        for sql in STATEMENTS:
            # The requested mode is part of the key, but only a statement
            # with an external scan plans differently under it.
            for mode in ("sync", "async", "auto") if "Web" in sql else ("auto",):
                expected = _attempt(fresh.execute, sql, mode=mode)
                assert _attempt(self.engine.execute, sql, mode=mode) == expected
                if expected[0] == "rows":
                    assert self.engine.plan(sql, mode=mode).explain() == fresh.explain(
                        sql, mode=mode, form="physical"
                    )

    @rule(count=st.integers(1, 40), into_s=st.booleans())
    def insert(self, count, into_s):
        keys = range(self.next_key, self.next_key + count)
        self.next_key += count
        if into_s:
            self.db.table("S").insert_many([(k,) * self.s_width for k in keys])
        else:
            self.db.table("T").insert_many([(k, k % 7, "n{}".format(k % 11)) for k in keys])

    @rule(modulus=st.integers(2, 9), into_s=st.booleans())
    def delete_where(self, modulus, into_s):
        self.db.table("S" if into_s else "T").delete_where(
            lambda row: row[0] % modulus == 0
        )

    @rule(column=st.sampled_from(("A", "B")))
    def toggle_index(self, column):
        if column in self.indexes:
            self.db.drop_index("idx_t_{}".format(column.lower()))
            self.indexes.remove(column)
        else:
            self.db.create_index("T", column)
            self.indexes.add(column)

    @rule()
    def analyze(self):
        self.db.analyze()

    @rule(columns=st.sampled_from(S_SCHEMAS), rows=st.integers(0, 30))
    def recreate_s(self, columns, rows):
        self.db.drop_table("S")
        self.s_width = len(columns)
        self.db.create_table("S", columns).insert_many(
            [(3 * i,) * self.s_width for i in range(rows)]
        )

    @rule(latency=st.sampled_from((0.0, 0.05)))
    def attach_cost_model(self, latency):
        self.engine.cost_model = CostModel(latency_mean=latency)

    @precondition(lambda self: self.engine.cost_model is not None)
    @rule()
    def detach_cost_model(self):
        self.engine.cost_model = None

    @rule()
    def recalibrate(self):
        self.engine.recalibrate()


TestStatementTableOracle = StatementTableMachine.TestCase
TestStatementTableOracle.settings = settings(
    max_examples=6, stateful_step_count=8, deadline=None
)


# -- (ii) the hazards a table with no invalidation gets wrong --------------------


class TestNamedRegressions:
    @pytest.mark.parametrize(
        "sql,grows",
        [
            ("Select A From T Where A Not In (Select X From S)", -1),
            ("Select A From T Where A < 2 and Exists (Select X From S Where X = 1)", 2),
        ],
    )
    def test_subquery_result_is_not_remembered(self, sql, grows):
        db = _small_db()
        engine = _engine(db)
        before = _outcomes(engine)
        first = engine.execute(sql, mode="sync").rows
        db.table("S").insert((1,))
        second = engine.execute(sql, mode="sync").rows
        assert len(second) == len(first) + grows
        assert _moved(engine, before) == {"unstored": 2}
        assert not engine._statements
        assert _bag(second) == _bag(_engine(db).execute(sql, mode="sync").rows)

    def test_decorrelated_subquery_is_stored_and_follows_the_data(self):
        db = _pack_db()
        engine = WsqEngine(database=db, cache=False)
        sql = "Select A From T Where A In (Select X From S)"
        before = _outcomes(engine)
        first = engine.execute(sql).rows
        assert engine.execute(sql).rows == first
        db.table("S").insert((1,))
        assert _bag(engine.execute(sql).rows) == _bag(first + [(1,)])
        assert _moved(engine, before) == {"miss": 1, "hit": 1, "stale": 1}

    def test_dropped_index_leaves_no_index_scan(self):
        db = _small_db()
        db.create_index("T", "A")
        engine = _engine(db)
        sql = "Select A, B From T Where A = 5"
        assert "IndexScan" in engine.plan(sql).explain()
        rows = engine.execute(sql).rows
        db.drop_index("idx_t_a")
        assert "IndexScan" not in engine.plan(sql).explain()
        assert engine.execute(sql).rows == rows == [(5, 5)]

    def test_recreated_table_with_fewer_columns_fails_to_bind(self):
        db = _small_db()
        db.drop_table("S")
        db.create_table("S", [("X", DataType.INT), ("Y", DataType.INT)]).insert((1, 2))
        engine = _engine(db)
        sql = "Select Y From S"
        assert engine.execute(sql).rows == [(2,)]
        db.drop_table("S")
        db.create_table("S", [("X", DataType.INT)]).insert((1,))
        with pytest.raises(PlanError, match="Y"):
            engine.execute(sql)

    def test_insert_statement_then_the_same_select(self):
        engine = _engine(_small_db())
        sql = "Select X From S Where X > 900"
        assert engine.run(sql).rows == []
        engine.run("Insert Into S Values (901)")
        assert engine.run(sql).rows == [(901,)]
        assert engine.execute(sql).rows == [(901,)]

    def test_cost_model_attached_means_nothing_is_stored_or_served(self):
        engine = _engine(_small_db())
        sql = STATEMENTS[0]
        before = _outcomes(engine)
        engine.execute(sql)
        engine.cost_model = CostModel(latency_mean=0.05)
        engine.execute(sql)
        engine.execute("Select B From T")
        engine.cost_model = None
        engine.execute(sql)
        assert _moved(engine, before) == {"miss": 1, "unstored": 2, "hit": 1}
        assert list(engine._statements) == [(sql, "async")]

    def test_requested_mode_is_part_of_the_key(self):
        engine = _engine(_small_db())
        sql = STATEMENTS[-2]
        shapes = {mode: engine.plan(sql, mode=mode).explain() for mode in ("sync", "async")}
        assert "ReqSync" in shapes["async"] and "ReqSync" not in shapes["sync"]
        assert engine.plan(sql, mode="sync").explain() == shapes["sync"]
        assert engine.plan(sql, mode="auto").explain() == shapes["async"]


class TestGeneration:
    def test_moves_on_every_ddl_analyze_and_mutation_and_on_nothing_else(self):
        db = _small_db()
        table = db.table("T")
        seen = [db.generation]

        def moved():
            seen.append(db.generation)
            return seen[-1] != seen[-2]

        rid = table.insert((500, 1, "x"))
        assert moved()
        table.insert_many([(501, 1, "x"), (502, 2, "y")])
        assert moved()
        table.delete(rid)
        assert moved()
        table.delete_where(lambda row: row[0] == 501)
        assert moved()
        table.update_where(lambda row: row[0] == 502, lambda row: (502, 3, "z"))
        assert moved()
        db.create_index("T", "A")
        assert moved()
        db.drop_index("idx_t_a")
        assert moved()
        db.analyze("T")
        assert moved()
        db.create_table("U", [("K", DataType.INT)])
        assert moved()
        db.drop_table("U")
        assert moved()
        assert len(set(seen)) == len(seen)

        settled = db.generation
        engine = _engine(db)
        engine.execute("Select A From T Where B = 2")
        engine.explain("Select A From T Where B = 2")
        engine.plan("Select A From T, S Where A = X")
        assert table.row_count() == sum(1 for _ in table.scan()) == 41
        assert db.generation == settled


# -- (iii) stored trees are shared, by repeated and by concurrent executions ------


def _fingerprint(node):
    """``render`` plus what it leaves out: annotations, payloads, child identity."""
    lines = [logical_ir.render(node)]
    for n in logical_ir.walk(node):
        payload = {
            name: value
            for name, value in vars(n).items()
            if name not in ("child", "left", "right", "children", "schema")
        }
        instance = payload.get("instance")
        if instance is not None:
            payload["bindings"] = sorted(instance.fixed_bindings.items())
        lines.append(
            "{} {} {} {}".format(
                type(n).__name__,
                [id(c) for c in n.children],
                list(n.schema.names()),
                sorted((name, repr(value)) for name, value in payload.items()),
            )
        )
    return "\n".join(lines)


def _perf_gen():
    path = pathlib.Path(__file__).parent.parent / "perf" / "gen.py"
    spec = importlib.util.spec_from_file_location("perf_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _web_corpus(web):
    db = load_all(Database())
    statements = [Q1, Q2, Q3, Q4, Q5, Q6] + [sql for _, sql in TEMPLATES]
    for template in (1, 2, 3):
        statements += template_queries(template, instances=1)
    return WsqEngine(database=db, web=web, cache=False), db, statements, "async"


def _pack_corpus(web):
    db = _pack_db()
    statements = [sql for _, sql in PACK_TEMPLATES]
    return WsqEngine(database=db, web=web, cache=False), db, statements, "async"


def _local_corpus(web):
    gen = _perf_gen()
    db = load_all(Database())
    names = [row[0] for row in db.table("States").scan()]
    db.create_table(
        "Orders",
        [("Id", DataType.INT), ("State", DataType.STR),
         ("Amount", DataType.FLOAT), ("Qty", DataType.INT)],
    ).insert_many(gen.orders_rows(7, names, count=600))
    statements = [q.sql for q in gen.local_queries(7, per_shape=1)]
    assert len(statements) == len(gen.LOCAL_SHAPES) == 4
    return WsqEngine(database=db, web=web, cache=False), db, statements, "auto"


@pytest.mark.parametrize("corpus", [_web_corpus, _pack_corpus, _local_corpus])
def test_stored_trees_serve_repeated_and_concurrent_executions_unchanged(web, corpus):
    engine, db, statements, mode = corpus(web)
    reference = WsqEngine(database=db, web=web, cache=False)
    expected = {sql: _bag(reference.execute(sql, mode=mode).rows) for sql in statements}
    before = _outcomes(engine)
    for sql in statements:
        assert _bag(engine.execute(sql, mode=mode).rows) == expected[sql]
    stored = {key: _fingerprint(entry.logical) for key, entry in engine._statements.items()}
    assert sorted(stored) == sorted((sql, mode) for sql in set(statements))
    for _ in range(2):
        for sql in statements:
            assert _bag(engine.execute(sql, mode=mode).rows) == expected[sql]
    service = QueryService(engine, max_workers=8)
    try:
        handles = [
            (sql, service.submit(sql, mode=mode)) for _ in range(8) for sql in statements
        ]
        for sql, handle in handles:
            assert _bag(handle.result(timeout=60).rows) == expected[sql]
    finally:
        service.close()
    assert {
        key: _fingerprint(entry.logical) for key, entry in engine._statements.items()
    } == stored
    assert _moved(engine, before) == {
        "miss": len(stored),
        "hit": 11 * len(statements) - len(stored),
    }


# -- (iv) an observed engine sees a hit as it sees a fresh plan ------------------


def test_hit_replays_the_rule_firings_under_the_new_query_id(web):
    obs = Observability.enabled()
    engine = WsqEngine(database=load_all(Database()), web=web, cache=False, obs=obs)
    engine.execute(Q5)
    engine.execute(Q5)
    fired = obs.tracer.events(name=PLAN_RULE_FIRED)
    ids = sorted({event.query_id for event in fired})
    assert len(ids) == 2
    first, second = (
        [event.args for event in fired if event.query_id == query_id] for query_id in ids
    )
    assert first == second and first
    for args in first:
        assert engine.metrics.counter_value("planner.rules_fired", rule=args["rule"]) == 2 * sum(
            other["rule"] == args["rule"] for other in first
        )
    assert _outcomes(engine) == Counter(miss=1, hit=1)
    engine.pump.shutdown()


# -- (v) bounds ------------------------------------------------------------------


def test_table_stays_at_its_constant_and_every_execute_is_counted():
    db = _small_db()
    engine = _engine(db)
    before = _outcomes(engine)
    for key in range(1000):
        engine.execute("Select A From T Where A = {}".format(key))
    assert len(engine._statements) == STATEMENT_CAPACITY
    recent = "Select A From T Where A = 999"
    evicted = "Select A From T Where A = 0"
    engine.execute(recent)
    engine.execute(evicted)
    db.analyze()
    engine.execute(recent)
    engine.execute(STATEMENTS[2])
    assert len(engine._statements) == STATEMENT_CAPACITY
    moved = _moved(engine, before)
    assert moved == {"miss": 1001, "hit": 1, "stale": 1, "unstored": 1}
    assert sum(moved.values()) == 1004
