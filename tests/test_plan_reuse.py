"""A statement's kept physical plan runs exactly like a fresh lowering.

``WsqEngine._run`` keeps one idle lowered plan on each stored statement:
a repeat checks it out, points its context-holding operators (AEVScan,
EVScan, ReqSync) at the new run's ``AsyncContext`` and drains it again.
These tests hold that re-open to the plan ``engine.plan()`` lowers fresh
— rows, ReqSync counters and pump registrations — on the SQL-oracle
shapes, the paper's queries and every Table-1 template, in both modes
and at ``batch_size`` 1 and the default; after a mid-stream ``LIMIT``
abandon, under degraded calls, with eight threads on one statement, and
after an expired deadline.  They also pin what is never pooled and what
a returned plan must not keep.
"""

import gc
import threading
import weakref

import pytest
from test_paper_queries import FIG4, KNUTH, Q1, Q2, Q3, Q4, Q5, Q6
from test_plan_goldens import TEMPLATES

from repro.asynciter.pump import RequestPump
from repro.asynciter.resilience import ResiliencePolicy, RetryPolicy
from repro.bench.workloads import template_queries
from repro.datasets import load_all
from repro.exec import collect_batches
from repro.relational.batch import DEFAULT_BATCH_SIZE
from repro.relational.types import DataType
from repro.serve import Deadline
from repro.storage import Database
from repro.util.errors import QueryDeadlineExceeded
from repro.web.faults import FaultModel
from repro.web.latency import UniformLatency
from repro.wsq import WsqEngine
from repro.wsq import engine as engine_module

MODES = ("sync", "async")
BATCH_SIZES = (1, DEFAULT_BATCH_SIZE)
REOPENS = 3

#: One query per ``tests/test_sql_oracle.py`` shape, over its T(Name, N)
#: and U(Name, N) tables.
LOCAL_SHAPES = (
    "Select Distinct T.Name, T.N From T Where T.N > -3 Order By T.N Desc",
    "Select T.Name, T.N From T Where T.Name Like '%a%' Order By T.N",
    "Select T.Name, T.N From T Where T.Name Is Not Null and T.N != 2",
    "Select T.Name, T.N From T Where T.Name In ('ada', 'zz')",
    "Select T.Name, T.N From T Where T.N Between -4 and 6",
    "Select T.Name, T.N From T Order By T.N, T.Name Limit 5",
    "Select Count(*), Count(N), Sum(N), Min(N), Max(N) From T",
    "Select Name, Count(*), Sum(N) From T Group By Name",
    "Select T.Name, U.Name From T, U Where T.N = U.N",
    "Select T.Name, U.Name From T, U Where T.N < U.N",
    "Select T.Name, U.Name From T, U",
    "Select T.Name, T.N From T Where T.N In (Select U.N From U)",
    "Select T.Name, T.N From T Where T.N Not In (Select U.N From U)",
    "Select T.Name, T.N From T Where T.N < -5 or T.N >= 3 or T.N = 0",
    "Select T.Name, T.N, U.Name From T, U Where T.N = U.N and U.N <= 4",
)

#: The paper's Section 3.1 queries, the plan-golden templates, Figure 4
#: and every Table-1 template.
WEB_STATEMENTS = (
    (Q1, Q2, Q3, Q4, Q5, Q6, KNUTH, FIG4)
    + tuple(sql for _, sql in TEMPLATES)
    + tuple(sql for t in (1, 2, 3) for sql in template_queries(t, instances=2))
)

#: Template 2 joins a one-row WebCount call and a two-row WebPages call
#: into each tuple.  Which call lands first decides ``values_patched`` (3
#: when WebCount does, 4 when WebPages does and its copy is patched
#: again), so in async mode that counter varies between two fresh
#: lowerings too; every other counter repeats.
PATCH_ORDER_DEPENDENT = frozenset(template_queries(2, instances=2))

#: A ``LIMIT`` that closes its input mid-stream, over the web and locally.
LIMITED = (
    Q1.replace(" Order By Count Desc", " Limit 3"),
    FIG4 + " Limit 5",
    "Select T.Name, U.Name From T, U Limit 4",
)

#: What a run of a plan adds to its context holders' counters.
COUNTERS = (
    "calls_registered",
    "call_errors",
    "tuples_buffered",
    "tuples_cancelled",
    "tuples_proliferated",
    "values_patched",
    "tuples_dropped_on_error",
    "values_nulled_on_error",
)


def _oracle_db(indexed):
    names = ["ada", "bob", "cy", "dee", "ed", "flo", None]
    db = load_all(Database())
    db.create_table_from_rows(
        "T",
        [("Name", DataType.STR), ("N", DataType.INT)],
        [(names[i % 7], None if i % 9 == 4 else (i * 7) % 23 - 11) for i in range(30)],
    )
    db.create_table_from_rows(
        "U",
        [("Name", DataType.STR), ("N", DataType.INT)],
        [(names[(i * 3) % 7], (i * 5) % 17 - 8) for i in range(12)],
    )
    if indexed:
        db.create_index("T", "N")
    return db


@pytest.fixture()
def engines():
    """Builds engines with a pump of their own (so its counts are theirs
    alone) and no result cache; shuts every pump down afterwards."""
    built = []

    def build(db=None, web=None, **kwargs):
        engine = WsqEngine(
            database=db if db is not None else load_all(Database()),
            web=web,
            cache=False,
            pump=RequestPump(name="plan-reuse"),
            **kwargs
        )
        built.append(engine)
        return engine

    yield build
    for engine in built:
        engine.pump.shutdown()


def _counters(plan):
    holders = engine_module._context_holders(plan)
    return {name: sum(getattr(op, name, 0) for op in holders) for name in COUNTERS}


def _registered(engine):
    return engine.pump.stats.snapshot()["registered"]


def _idle(engine, sql, mode):
    entry = engine._statements.get((sql, mode))
    return None if entry is None or entry.idle is None else entry.idle[0]


def _fresh(engine, sql, mode):
    """A run of ``engine.plan()``'s fresh lowering: rows, counters, calls."""
    before = _registered(engine)
    plan = engine.plan(sql, mode=mode)
    rows = collect_batches(plan, engine.config.batch_size)
    return rows, _counters(plan), _registered(engine) - before


def _reused(engine, sql, mode):
    """A run of ``execute``, whose plan must come from the statement."""
    plan = _idle(engine, sql, mode)
    assert plan is not None, "no kept plan for {!r}".format(sql)
    before, registered = _counters(plan), _registered(engine)
    rows = engine.execute(sql, mode=mode).rows
    assert _idle(engine, sql, mode) is plan
    after = _counters(plan)
    moved = {name: after[name] - before[name] for name in COUNTERS}
    return rows, moved, _registered(engine) - registered


def _same(mode, got, expected):
    if mode == "sync":
        assert got == expected
    else:
        # Async emission follows call completion: tied keys may swap.
        assert sorted(map(repr, got)) == sorted(map(repr, expected))


def _assert_reopens_match_fresh(engine, statements, mode):
    for sql in statements:
        first = engine.execute(sql, mode=mode).rows
        rows, counters, registered = _fresh(engine, sql, mode)
        _same(mode, first, rows)
        if _idle(engine, sql, mode) is None:
            # Unstored (a kept subquery predicate): every run lowers fresh.
            assert "(Select" in sql
            continue
        if mode == "async" and sql in PATCH_ORDER_DEPENDENT:
            del counters["values_patched"]
        for _ in range(REOPENS):
            got, moved, calls = _reused(engine, sql, mode)
            _same(mode, got, rows)
            assert {name: moved[name] for name in counters} == counters
            assert calls == registered
        if sql == FIG4 and engine.faults is None:
            assert len(rows) == 111
    assert engine.pump.quiesce(timeout=5.0)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("mode", MODES)
class TestReopenEqualsFreshLowering:
    @pytest.mark.parametrize("indexed", [False, True])
    def test_sql_oracle_shapes(self, engines, mode, batch_size, indexed):
        engine = engines(_oracle_db(indexed), batch_size=batch_size)
        _assert_reopens_match_fresh(engine, LOCAL_SHAPES, mode)

    def test_paper_queries_and_table1_templates(self, engines, web, mode, batch_size):
        engine = engines(web=web, batch_size=batch_size)
        _assert_reopens_match_fresh(engine, WEB_STATEMENTS, mode)

    def test_reopen_after_a_mid_stream_limit(self, engines, web, mode, batch_size):
        engine = engines(_oracle_db(False), web=web, batch_size=batch_size)
        for sql in LIMITED:
            whole = sql.rsplit(" Limit ", 1)[0]
            count = int(sql.rsplit(" Limit ", 1)[1])
            every = sorted(map(repr, engine.execute(whole, mode=mode).rows))
            runs = [engine.execute(sql, mode=mode).rows for _ in range(REOPENS + 1)]
            fresh, _, _ = _fresh(engine, sql, mode)
            for rows in runs + [fresh]:
                assert len(rows) == count
                assert set(map(repr, rows)) <= set(every)
                if mode == "sync":
                    assert rows == fresh
            assert engine.pump.quiesce(timeout=5.0)
            assert not engine.pump._calls

    @pytest.mark.parametrize("on_error", ["drop", "null"])
    def test_degraded_runs(self, engines, web, mode, batch_size, on_error):
        engine = engines(
            web=web,
            batch_size=batch_size,
            on_error=on_error,
            faults=FaultModel(seed=11, transient_rate=0.35),
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=2, base_backoff=0.0, jitter=0.0)
            ),
        )
        _assert_reopens_match_fresh(engine, (Q1, Q5, FIG4), mode)


@pytest.mark.parametrize("mode", MODES)
def test_eight_threads_on_one_statement(engines, web, mode):
    engine = engines(web=web)
    expected = sorted(engine.execute(FIG4, mode=mode).rows)
    _, _, per_run = _fresh(engine, FIG4, mode)
    barrier = threading.Barrier(8)
    results, errors = [], []

    def session():
        try:
            barrier.wait(timeout=30)
            for _ in range(REOPENS):
                results.append(sorted(engine.execute(FIG4, mode=mode).rows))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    before = _registered(engine)
    threads = [threading.Thread(target=session) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    assert len(results) == 8 * REOPENS
    assert all(rows == expected and len(rows) == 111 for rows in results)
    assert _registered(engine) - before == 8 * REOPENS * per_run
    _, moved, calls = _reused(engine, FIG4, mode)
    assert calls == per_run and moved["calls_registered"] > 0


def test_plan_explain_and_profile_never_hand_out_the_kept_plan(
    engines, web, monkeypatch
):
    engine = engines(web=web)
    engine.execute(Q1)
    kept = _idle(engine, Q1, "async")
    lowered = []

    def recording_lower(*args):
        lowered.append(engine_module_lower(*args))
        return lowered[-1]

    engine_module_lower = engine_module.lower
    monkeypatch.setattr(engine_module, "lower", recording_lower)
    first, second = engine.plan(Q1), engine.plan(Q1)
    assert first is not second and kept not in (first, second)
    assert engine.explain(Q1) == engine.explain(Q1)
    reports = [engine.profile(Q1), engine.profile(Q1)]
    assert sorted(reports[0].result.rows) == sorted(reports[1].result.rows)
    assert len(lowered) == 6 and len({id(plan) for plan in lowered}) == 6
    assert kept not in lowered
    engine.execute(Q1)
    assert len(lowered) == 6 and _idle(engine, Q1, "async") is kept


@pytest.mark.parametrize(
    "change",
    [
        lambda db: db.create_index("T", "N"),
        lambda db: (db.create_index("T", "N"), db.drop_index("idx_t_n")),
        lambda db: db.analyze(),
    ],
    ids=["create_index", "drop_index", "analyze"],
)
def test_catalog_change_lowers_afresh(engines, change):
    db = _oracle_db(False)
    engine = engines(db)
    sql = "Select T.Name From T Where T.N = 3"
    expected = engine.execute(sql).rows
    engine.execute(sql)
    kept = _idle(engine, sql, "async")
    change(db)
    assert engine.execute(sql).rows == expected
    assert _idle(engine, sql, "async") not in (None, kept)
    indexed = "IndexScan" in _idle(engine, sql, "async").explain()
    assert indexed == ("idx_t_n" in db.index_names())


def test_expired_deadline_drops_the_plan_and_the_next_run_is_whole(engines):
    sql = Q1
    oracle = sorted(WsqEngine(database=load_all(Database()), cache=False).execute(sql).rows)
    engine = engines(latency=UniformLatency(0.15, 0.25, salt=11))
    assert sorted(engine.execute(sql).rows) == oracle
    assert _idle(engine, sql, "async") is not None
    with pytest.raises(QueryDeadlineExceeded):
        # Expires inside ReqSync's wait, with its calls still pending.
        engine.execute(sql, deadline=Deadline(0.05))
    assert _idle(engine, sql, "async") is None
    assert sorted(engine.execute(sql).rows) == oracle
    assert engine.pump.quiesce(timeout=5.0)
    assert not engine.pump._calls


class _Budget(Deadline):
    """A deadline a weak reference can watch."""


def test_a_returned_plan_keeps_nothing_of_its_run(engines, web, monkeypatch):
    contexts = []

    class WatchedContext(engine_module.AsyncContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(weakref.ref(self))

    monkeypatch.setattr(engine_module, "AsyncContext", WatchedContext)
    engine = engines(web=web)
    deadlines = []
    for mode in MODES:
        for _ in range(2):  # a fresh lowering, then the kept plan
            deadline = _Budget(60.0)
            deadlines.append(weakref.ref(deadline))
            assert len(engine.execute(FIG4, mode=mode, deadline=deadline).rows) == 111
            del deadline
        holders = engine_module._context_holders(_idle(engine, FIG4, mode))
        assert holders and all(op.context is None for op in holders)
    assert engine.pump.quiesce(timeout=5.0)
    gc.collect()
    assert len(contexts) == 4 and len(deadlines) == 4
    assert all(ref() is None for ref in contexts + deadlines)
