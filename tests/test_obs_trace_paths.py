"""Tracing the hard paths: proliferation, cancellation, faults, equivalence.

The satellite checklist from the observability issue:

- proliferation (a call returning n>1 rows copies placeholder tuples) —
  the trace must show child rows inheriting the parent call id;
- cancellation (a call returning 0 rows) emits ``reqsync.cancel_tuple``;
- the PR-1 fault paths — retry/backoff, breaker-open rejection, and the
  per-call timeout — each emit their expected event sequence;
- a sync/async equivalence test: the same workload run sequentially and
  asynchronously produces identical *logical* event multisets (same
  registers, same completions, per destination and request key), even
  though the physical schedules differ completely.
"""

import threading

import pytest

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import PumpLimits, RequestPump
from repro.asynciter.reqsync import ReqSync
from repro.asynciter.resilience import (
    CircuitBreakerConfig,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.bench.workloads import CALLS_PER_QUERY, template_queries
from repro.exec import RowsScan, collect
from repro.obs import Observability, Tracer, overlap_factor, request_table
from repro.obs.schema import validate_trace_events
from repro.obs.trace import (
    CALL_BREAKER_REJECT,
    CALL_COMPLETE,
    CALL_DEDUP,
    CALL_ENQUEUE,
    CALL_FAIL,
    CALL_ISSUE,
    CALL_REGISTER,
    CALL_RETRY,
    CALL_TIMEOUT,
    QUERY_SPAN,
    SYNC_CANCEL_TUPLE,
    SYNC_PATCH,
    SYNC_PROLIFERATE,
    SYNC_WAIT,
)
from repro.relational.placeholder import Placeholder
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.util.errors import (
    BreakerOpenError,
    HardWebError,
    RequestTimeoutError,
    TransientWebError,
)
from repro.util.timing import VirtualClock
from repro.vtables.base import ExternalCall
from repro.web.cache import ResultCache
from repro.web.latency import UniformLatency
from repro.wsq import WsqEngine

# ---------------------------------------------------------------------------
# Harness: a traced pump + hand-built ReqSync children (as in test_reqsync)
# ---------------------------------------------------------------------------


@pytest.fixture()
def tracer():
    return Tracer()


@pytest.fixture()
def pump(tracer):
    p = RequestPump(tracer=tracer)
    yield p
    p.shutdown()


_KEY_COUNTER = iter(range(10**9))


def make_call(rows, delay=0.0, key=None):
    def run(attempt=0):
        if delay:
            yield delay
        return rows

    if key is None:
        key = ("test", next(_KEY_COUNTER))
    return ExternalCall(key, "AV", run)


SCHEMA = Schema(
    [Column("Name", DataType.STR), Column("Value", DataType.INT)],
    allow_duplicates=True,
)


class _GatedScan(RowsScan):
    """A child whose rows embed placeholders registered at open()."""

    def __init__(self, context, specs):
        super().__init__(SCHEMA, [], name="gated")
        self.context = context
        self.specs = specs
        self.call_ids = []

    def open(self, bindings=None):
        rows = []
        self.call_ids = []
        for name, call_rows, delay in self.specs:
            (call_id,) = self.context.register([make_call(call_rows, delay)])
            self.call_ids.append(call_id)
            rows.append((name, Placeholder(call_id, "value")))
        self.rows_data = rows
        super().open(bindings)


def run_sync_plan(pump, tracer, specs, query_id=0):
    context = AsyncContext(pump, tracer=tracer, query_id=query_id)
    child = _GatedScan(context, specs)
    sync = ReqSync(child, context, wait_timeout=5)
    rows = collect(sync)
    pump.quiesce(timeout=2.0)
    return rows, child


def settle_one(pump, call):
    """Register one call, wait for on_complete + settlement events."""
    done = threading.Event()
    box = {}

    def on_complete(call_id, rows, error):
        box["rows"] = rows
        box["error"] = error
        done.set()

    (call_id,) = pump.register([call], on_complete, query_id=0)
    assert pump.wait(done.is_set, 5.0)
    pump.quiesce(timeout=2.0)
    return call_id, box


# ---------------------------------------------------------------------------
# Proliferation and cancellation
# ---------------------------------------------------------------------------


class TestProliferationTrace:
    def test_children_inherit_parent_call_id(self, pump, tracer):
        rows, child = run_sync_plan(
            pump, tracer, [("a", [{"value": 1}, {"value": 2}, {"value": 3}], 0.0)]
        )
        assert sorted(rows) == [("a", 1), ("a", 2), ("a", 3)]
        (parent_call,) = child.call_ids
        events = tracer.events(name=SYNC_PROLIFERATE)
        assert len(events) == 2  # 3 result rows -> 2 copies
        child_tids = set()
        for event in events:
            # The copy is correlated to the call whose completion spawned it.
            assert event.call_id == parent_call
            assert event.query_id == 0
            child_tids.add(event.args["child_tid"])
            assert event.args["parent_tid"] not in child_tids - {
                event.args["child_tid"]
            }
        assert len(child_tids) == 2  # distinct copies

    def test_copies_inherit_other_pending_calls(self, pump, tracer):
        # Two placeholders in one tuple: the fast call proliferates, and
        # every copy must carry the slow call's id in inherited_calls —
        # the Section 4.4 nuance, now visible in the trace.
        context = AsyncContext(pump, tracer=tracer, query_id=0)
        (fast,) = context.register([make_call([{"value": 1}, {"value": 2}])])
        (slow,) = context.register([make_call([{"value": 9}], delay=0.05)])
        child = RowsScan(
            SCHEMA,
            [("pair", Placeholder(fast, "value"), Placeholder(slow, "value"))],
            name="pair",
        )
        child.schema = Schema(
            [
                Column("Name", DataType.STR),
                Column("A", DataType.INT),
                Column("B", DataType.INT),
            ],
            allow_duplicates=True,
        )
        rows = collect(ReqSync(child, context, wait_timeout=5))
        assert sorted(rows) == [("pair", 1, 9), ("pair", 2, 9)]
        pump.quiesce(timeout=2.0)
        (event,) = tracer.events(name=SYNC_PROLIFERATE)
        assert event.call_id == fast
        assert event.args["inherited_calls"] == [slow]

    def test_patch_events_count_rows(self, pump, tracer):
        run_sync_plan(pump, tracer, [("a", [{"value": 1}, {"value": 2}], 0.0)])
        (patch,) = tracer.events(name=SYNC_PATCH)
        assert patch.args["rows"] == 2
        assert patch.args["patched"] >= 1


class TestCancellationTrace:
    def test_zero_rows_cancels_tuple(self, pump, tracer):
        rows, child = run_sync_plan(
            pump,
            tracer,
            [("kept", [{"value": 1}], 0.0), ("gone", [], 0.0)],
        )
        assert rows == [("kept", 1)]
        (cancel,) = tracer.events(name=SYNC_CANCEL_TUPLE)
        assert cancel.call_id == child.call_ids[1]
        assert cancel.args["other_pending"] == []
        # The empty-result call still *completed* (it answered: 0 rows).
        completes = {
            e.call_id for e in tracer.events(name=CALL_COMPLETE)
        }
        assert child.call_ids[1] in completes

    def test_wait_spans_recorded(self, pump, tracer):
        run_sync_plan(pump, tracer, [("a", [{"value": 1}], 0.01)])
        waits = tracer.events(name=SYNC_WAIT)
        assert waits, "ReqSync blocked at least once on an incomplete tuple"
        kinds = {e.kind for e in waits}
        assert kinds == {"begin", "end"}


# ---------------------------------------------------------------------------
# Fault paths: retry, breaker, timeout, dedup
# ---------------------------------------------------------------------------


def fast_policy(max_attempts=3, call_timeout=None, breaker=None):
    return ResiliencePolicy(
        retry=RetryPolicy(max_attempts=max_attempts, base_backoff=0.0),
        call_timeout=call_timeout,
        breaker=breaker,
    )


class TestFaultPathTraces:
    def test_retry_sequence(self, tracer):
        pump = RequestPump(tracer=tracer, resilience=fast_policy(max_attempts=3))
        try:
            attempts = []

            def run(attempt=0):
                attempts.append(attempt)
                if len(attempts) < 3:
                    raise TransientWebError("flaky")
                return [{"value": 7}]
                yield  # an attempt is a generator, even one that never waits

            call = ExternalCall(("retry", 0), "AV", run)
            call_id, box = settle_one(pump, call)
            assert box["error"] is None
            retries = tracer.events(name=CALL_RETRY)
            assert [e.args["attempt"] for e in retries] == [0, 1]
            assert all(e.call_id == call_id for e in retries)
            assert all(e.args["error"] == "TransientWebError" for e in retries)
            assert all(e.args["backoff_s"] == 0.0 for e in retries)
            # Lifecycle order: register -> enqueue -> issue -> retry* -> complete.
            names = [
                e.name
                for e in tracer.events()
                if e.call_id == call_id and e.name.startswith("call.")
            ]
            assert names == [
                CALL_REGISTER,
                CALL_ENQUEUE,
                CALL_ISSUE,
                CALL_RETRY,
                CALL_RETRY,
                CALL_COMPLETE,
            ]
            (complete,) = tracer.events(name=CALL_COMPLETE)
            assert complete.args["attempts"] == 3
            assert request_table(tracer.events())[call_id].retries == 2
        finally:
            pump.shutdown()

    def test_breaker_open_rejection(self):
        # The pump, and so its breaker, run on the tracer's clock; it
        # never moves, so the breaker stays open.
        tracer = Tracer(clock=VirtualClock())
        breaker = CircuitBreakerConfig(failure_threshold=1)
        pump = RequestPump(
            tracer=tracer,
            resilience=fast_policy(max_attempts=1, breaker=breaker),
        )
        try:

            def fail(attempt=0):
                raise HardWebError("400 bad request")
                yield

            _, first = settle_one(
                pump, ExternalCall(("brk", 0), "AV", fail)
            )
            assert isinstance(first["error"], HardWebError)
            rejected_id, second = settle_one(
                pump, ExternalCall(("brk", 1), "AV", fail)
            )
            assert isinstance(second["error"], BreakerOpenError)
            (reject,) = tracer.events(name=CALL_BREAKER_REJECT)
            assert reject.call_id == rejected_id
            assert reject.destination == "AV"
            fails = {e.call_id for e in tracer.events(name=CALL_FAIL)}
            assert rejected_id in fails
            assert request_table(tracer.events())[rejected_id].breaker_rejections == 1
        finally:
            pump.shutdown()

    def test_per_call_timeout(self, tracer):
        pump = RequestPump(
            tracer=tracer,
            resilience=fast_policy(max_attempts=1, call_timeout=0.02),
        )
        try:

            def hang(attempt=0):
                yield 5.0
                return []

            call_id, box = settle_one(
                pump, ExternalCall(("hang", 0), "AV", hang)
            )
            assert isinstance(box["error"], RequestTimeoutError)
            (timeout,) = tracer.events(name=CALL_TIMEOUT)
            assert timeout.call_id == call_id
            assert timeout.args["attempt"] == 0
            record = request_table(tracer.events())[call_id]
            assert record.timeouts == 1
            assert record.outcome == "fail"
        finally:
            pump.shutdown()

    def test_dedup_is_traced(self, pump, tracer):
        context = AsyncContext(pump, tracer=tracer, query_id=3)
        call = make_call([{"value": 1}], delay=0.05, key=("same", "key"))
        (first,) = context.register([call])
        (second,) = context.register([make_call([{"value": 1}], key=("same", "key"))])
        assert first == second
        (dedup,) = tracer.events(name=CALL_DEDUP)
        assert dedup.call_id == first
        assert dedup.query_id == 3


# ---------------------------------------------------------------------------
# Whole-engine traces: lifecycle completeness + sync/async equivalence
# ---------------------------------------------------------------------------

QUERY = (
    "Select Name, Count From States, WebCount "
    "Where Name = T1 and WebCount.T2 = 'capital'"
)


def traced_engine(web, paper_db, cache=None):
    return WsqEngine(
        database=paper_db, web=web, obs=Observability.enabled(), cache=cache
    )


def call_sequences(tracer):
    """Sorted ``(request key, [call.* event names])``, one entry per call id."""
    by_call = {}
    for event in tracer.events():
        if event.name.startswith("call."):
            by_call.setdefault(event.call_id, []).append(event)
    return sorted(
        (events[0].args["key"], [event.name for event in events])
        for events in by_call.values()
    )


def logical_multiset(tracer, query_id, name):
    """(destination, request-key) multiset for one event name."""
    return sorted(
        (e.destination, e.args.get("key"))
        for e in tracer.events(name=name, query_id=query_id)
    )


class TestEngineTraces:
    def test_async_query_full_lifecycle(self, web, paper_db):
        engine = traced_engine(web, paper_db)
        result = engine.execute(QUERY, mode="async")
        engine.pump.quiesce(timeout=2.0)
        tracer = engine.tracer
        registers = tracer.events(name=CALL_REGISTER)
        assert len(registers) == len(result.rows) == 50
        assert all(e.args["mode"] == "async" for e in registers)
        table = request_table(tracer.events())
        assert len(table) == 50
        assert {r.outcome for r in table.values()} == {"complete"}
        assert all(r.queue_wait is not None and r.service is not None
                   for r in table.values())
        # Every call flowed register -> enqueue -> issue -> complete.
        for name in (CALL_ENQUEUE, CALL_ISSUE, CALL_COMPLETE):
            assert len(tracer.events(name=name)) == 50
        spans = tracer.events(name=QUERY_SPAN)
        assert {e.kind for e in spans} == {"begin", "end"}

    def test_async_overlap_visible_in_trace(self, web, paper_db):
        # 50 identically-shaped calls under simulated latency: the pump
        # must actually overlap them — the paper's whole point.  Under a
        # global cap with enough work to saturate it the peak is exact:
        # the semaphore bounds in-service requests above, saturation
        # bounds them below (10 ms per call dwarfs registering 16).
        for limit in (1, 4, 16):
            obs = Observability.enabled()
            pump = RequestPump(
                limits=PumpLimits(max_total=limit),
                tracer=obs.tracer,
                metrics=obs.metrics,
            )
            try:
                engine = WsqEngine(
                    database=paper_db,
                    web=web,
                    latency=UniformLatency(0.01, 0.01),
                    pump=pump,
                    obs=obs,
                )
                assert len(engine.execute(QUERY, mode="async").rows) == 50
                assert pump.quiesce(timeout=2.0)
                assert overlap_factor(obs.tracer.events()) == limit
            finally:
                pump.shutdown()

    def test_sync_query_emits_logical_lifecycle(self, web, paper_db):
        engine = traced_engine(web, paper_db)
        result = engine.execute(QUERY, mode="sync")
        engine.pump.quiesce(timeout=2.0)
        tracer = engine.tracer
        registers = tracer.events(name=CALL_REGISTER)
        assert len(registers) == len(result.rows) == 50
        assert all(e.args["mode"] == "sync" for e in registers)
        # Same tracer as the async path: the pump's, with its call ids.
        for name in (CALL_ENQUEUE, CALL_ISSUE, CALL_COMPLETE):
            assert len(tracer.events(name=name)) == 50
        # ... and never more than one request in service at a time.
        assert overlap_factor(tracer.events()) == 1

    def test_sync_async_logical_equivalence(self, web, paper_db):
        sync_engine = traced_engine(web, paper_db)
        sync_result = sync_engine.execute(QUERY, mode="sync")
        async_engine = traced_engine(web, paper_db)
        async_result = async_engine.execute(QUERY, mode="async")
        async_engine.pump.quiesce(timeout=2.0)

        assert sorted(sync_result.rows) == sorted(async_result.rows)
        for name in (CALL_REGISTER, CALL_COMPLETE):
            sync_events = logical_multiset(sync_engine.tracer, 0, name)
            async_events = logical_multiset(async_engine.tracer, 0, name)
            if name == CALL_COMPLETE:
                # Settlement events carry no key; compare destinations.
                sync_events = sorted(d for d, _ in sync_events)
                async_events = sorted(d for d, _ in async_events)
            assert sync_events == async_events

    @pytest.mark.parametrize("template", [1, 2, 3])
    def test_sync_is_async_with_one_outstanding_call(
        self, web, paper_db, template
    ):
        sql = template_queries(template, instances=1)[0]
        rows, sequences = {}, {}
        for mode in ("sync", "async"):
            # No cache, whatever $REPRO_CACHE says: the sequential plan
            # re-registers a repeated request after the first completed,
            # where a cache would answer it and the concurrent plan's
            # dedup would not (the hit sequence is pinned below).
            engine = traced_engine(web, paper_db, cache=False)
            try:
                rows[mode] = sorted(engine.execute(sql, mode=mode).rows, key=repr)
                assert engine.pump.quiesce(timeout=2.0)
                sequences[mode] = call_sequences(engine.tracer)
                if mode == "sync":
                    assert overlap_factor(engine.tracer.events()) == 1
                    assert engine.pump.stats.snapshot()["max_in_flight"] == 1
            finally:
                engine.pump.shutdown()
        assert rows["sync"] == rows["async"]
        # The asynchronous plan issues every call of the template; the
        # sequential one skips those whose outer tuple was cancelled.
        # Each call it does issue goes through the same events.
        assert len(sequences["async"]) == CALLS_PER_QUERY[template]
        async_by_key = dict(sequences["async"])
        assert sequences["sync"]
        for key, names in sequences["sync"]:
            assert names == async_by_key[key]

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_cached_call_is_register_then_complete(self, web, paper_db, mode):
        sql = template_queries(3, instances=1)[0]
        engine = traced_engine(web, paper_db, cache=ResultCache())
        try:
            cold = sorted(engine.execute(sql, mode=mode).rows, key=repr)
            assert engine.pump.quiesce(timeout=2.0)
            went_out = [CALL_REGISTER, CALL_ENQUEUE, CALL_ISSUE, CALL_COMPLETE]
            answered = [CALL_REGISTER, CALL_COMPLETE]
            cold_sequences = [names for _, names in call_sequences(engine.tracer)]
            # Cold, a call either went out or repeated one that had.
            assert went_out in cold_sequences
            assert all(names in (went_out, answered) for names in cold_sequences)
            mark = len(engine.tracer)

            warm = sorted(engine.execute(sql, mode=mode).rows, key=repr)
            assert warm == cold
            events = engine.tracer.events()[mark:]
            by_call = {}
            for event in events:
                if event.name.startswith("call."):
                    by_call.setdefault(event.call_id, []).append(event)
            # Warm, every call is answered at registration: no enqueue,
            # no issue (no slot was queued for or taken), no attempt.
            # Asynchronously, AltaVista's rows arrive complete and
            # proliferate before the Google join, so one Sig can bind
            # the same Google call several times: the context dedups
            # those registrations after the first was answered.  A sync
            # scan takes each lease before the next registration, so it
            # never dedups.
            dedups = {CALL_DEDUP} if mode == "async" else set()
            assert by_call
            for call in by_call.values():
                names = [e.name for e in call]
                assert names[:2] == answered
                assert set(names[2:]) <= dedups
                assert call[0].args["mode"] == mode
                assert call[1].args["attempts"] == 0
            assert all(r.issued_at is None for r in request_table(events).values())
            assert overlap_factor(events) == 0
            assert not validate_trace_events(events)
        finally:
            engine.pump.shutdown()

    def test_metrics_percentiles_per_destination(self, web, paper_db):
        engine = traced_engine(web, paper_db)
        engine.execute(QUERY, mode="async")
        engine.pump.quiesce(timeout=2.0)
        snapshot = engine.metrics_snapshot()
        histogram = snapshot["histograms"]["request.e2e_seconds{destination=AV}"]
        assert histogram["count"] == 50
        assert 0 <= histogram["p50"] <= histogram["p95"] <= histogram["p99"]
        assert snapshot["counters"]["pump.registered{destination=AV}"] == 50

    def test_profile_carries_trace(self, web, paper_db):
        from repro.obs import render_waterfall, to_chrome_trace, validate_chrome_trace

        # explain(form="analyze") traces an untraced engine for its run...
        engine = WsqEngine(database=paper_db, web=web)  # tracing off
        text = engine.explain(QUERY, mode="async", form="analyze")
        assert "requests: 50 traced" in text
        assert int(text.split("overlap factor ")[1].split()[0]) >= 1
        # ...and detaches the borrowed tracer again: the engine stays untraced.
        assert engine.tracer is None and engine.pump.tracer is None
        # A pump that came with a tracer of its own keeps it.
        own = Tracer()
        engine = WsqEngine(database=paper_db, web=web, pump=RequestPump(tracer=own))
        engine.explain(QUERY, mode="async", form="analyze")
        assert engine.tracer is None and engine.pump.tracer is own
        traced = traced_engine(web, paper_db)
        traced.explain(QUERY, mode="async", form="analyze")
        query_id = traced.tracer.events(name=QUERY_SPAN)[-1].query_id
        events = traced.tracer.events(query_id=query_id)
        requests = request_table(events, query_id=query_id).values()
        assert len(requests) == 50
        assert {r.outcome for r in requests} == {"complete"}
        assert overlap_factor(events, query_id=query_id) >= 1
        assert "AV" in render_waterfall(events, query_id=query_id)
        assert validate_chrome_trace(to_chrome_trace(events)) == []
