"""Cache hits complete on the registering thread (DESIGN.md §5, §11.3).

An :class:`~repro.vtables.base.ExternalCall` carries a ``probe`` — the one
cache read of its request.  ``RequestPump`` asks it once, at registration;
a hit or a probe that raises settles the call there and then: counted
and traced like any other call (``call.register → call.complete|fail``,
``attempts=0``), but with no attempt, no slot, no breaker and no pump
wake-up.  Only a miss goes out.

The first half drives the pump directly with hand-made probes; the second
runs queries through an engine with a cache in front of it, in both modes.
"""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import PumpLimits, RequestPump
from repro.asynciter.resilience import CircuitBreakerConfig, ResiliencePolicy
from repro.datasets import load_all
from repro.obs import Observability
from repro.obs.analysis import request_table
from repro.obs.trace import (
    CALL_COMPLETE,
    CALL_FAIL,
    CALL_REGISTER,
    Tracer,
)
from repro.storage import Database
from repro.util.errors import BreakerOpenError, TransientWebError
from repro.util.timing import VirtualClock
from repro.vtables.base import ExternalCall
from repro.web.cache import ResultCache
from repro.web.world import default_web
from repro.wsq import WsqEngine
from test_cache_oracle import multiset, wsq_query

ROWS = [{"count": 7}]


class Sink:
    """``on_complete`` that records outcomes and the thread they came on."""

    def __init__(self, expected=1):
        self.outcomes = {}
        self.threads = set()
        self.expected = expected
        self.done = threading.Event()

    def __call__(self, call_id, rows, error):
        self.outcomes[call_id] = (rows, error)
        self.threads.add(threading.get_ident())
        if len(self.outcomes) >= self.expected:
            self.done.set()


def probed_call(key="k", answer=ROWS, went_out=None, release=None, error=None):
    """A call whose probe returns/raises *answer* (``None`` = a miss).

    *went_out* collects one entry per attempt that started;
    *release* (an Event) holds the attempt open until set.
    """

    def run(attempt=0):
        if went_out is not None:
            went_out.append(key)
        while release is not None and not release.is_set():
            yield 0.002
        if error is not None:
            raise error
        return ROWS

    def probe():
        if isinstance(answer, Exception):
            raise answer
        return answer

    return ExternalCall(key, "AV", run, probe)


def call_events(tracer, call_id):
    return [
        e for e in tracer.events() if e.name.startswith("call.") and e.call_id == call_id
    ]


def assert_exact(pump):
    """Every registered call settled exactly once, and nothing is left."""
    snap = pump.stats.snapshot()
    assert snap["registered"] == snap["completed"] + snap["failed"] + snap["cancelled"]
    assert snap["queued"] == 0 and snap["in_flight"] == 0
    assert pump._calls == {} and pump._flights == {}
    return snap


@pytest.fixture()
def pump():
    p = RequestPump(tracer=Tracer())
    yield p
    p.shutdown()


# -- the pump, with hand-made probes -------------------------------------------


class TestPumpAnswersAtRegistration:
    @pytest.mark.parametrize("sync", [False, True])
    def test_hit_settles_before_register_returns(self, pump, sync):
        sink, went_out = Sink(), []
        call = probed_call(went_out=went_out)
        mode = "sync" if sync else "async"
        (call_id,) = pump.register([call], sink, query_id="q", mode=mode)
        # Settled already, on this thread: no waiting, no quiescing.
        assert sink.outcomes == {call_id: (ROWS, None)}
        assert sink.threads == {threading.get_ident()}
        assert pump.quiesce(timeout=0)
        snap = assert_exact(pump)
        assert (snap["registered"], snap["completed"]) == (1, 1)
        assert snap["max_in_flight"] == 0  # no slot was taken
        assert went_out == []  # no attempt was started
        events = call_events(pump.tracer, call_id)
        assert [e.name for e in events] == [CALL_REGISTER, CALL_COMPLETE]
        assert (events[0].args["batch"], events[0].args["mode"]) == (1, mode)
        assert events[1].args["attempts"] == 0
        assert {e.query_id for e in events} == {"q"}
        record = request_table(pump.tracer.events())[call_id]
        assert record.outcome == "complete"
        assert record.enqueued_at is None and record.issued_at is None
        # The end-to-end histogram still sees every settled call.
        assert pump.latencies()["AV"]["e2e"]["count"] == 1
        assert "service" not in pump.latencies()["AV"]

    def test_miss_is_asked_once_and_goes_out(self, pump):
        asked, went_out, sink = [], [], Sink()

        def run(attempt=0):
            went_out.append(attempt)
            return ROWS
            yield  # an attempt is a generator, even one that never waits

        def probe():
            asked.append(1)
            return None

        (call_id,) = pump.register([ExternalCall("k", "AV", run, probe)], sink)
        assert pump.wait(sink.done.is_set, 5) and pump.quiesce()
        assert asked == [1] and went_out == [0]
        assert sink.outcomes == {call_id: (ROWS, None)}
        # No pump thread: a miss that never waits ends on the registering one.
        assert sink.threads == {threading.get_ident()}
        names = [e.name for e in call_events(pump.tracer, call_id)]
        assert names == [CALL_REGISTER, "call.enqueue", "call.issue", CALL_COMPLETE]
        assert_exact(pump)

    def test_empty_result_is_a_hit_not_a_miss(self, pump):
        # WebPages with no hits caches []; only None means "go and ask".
        sink, went_out = Sink(), []
        (call_id,) = pump.register([probed_call(answer=[], went_out=went_out)], sink)
        assert sink.outcomes == {call_id: ([], None)} and went_out == []

    def test_replayed_failure_fails_inline(self, pump):
        # A probe is caller-supplied code: a failure it raises (replays)
        # is the call's error.
        sink, went_out = Sink(), []
        failure = RuntimeError("replayed failure")
        (call_id,) = pump.register([probed_call(answer=failure, went_out=went_out)], sink)
        assert sink.outcomes == {call_id: (None, failure)}
        assert sink.threads == {threading.get_ident()} and went_out == []
        snap = assert_exact(pump)
        assert (snap["failed"], snap["completed"]) == (1, 0)
        names = [e.name for e in call_events(pump.tracer, call_id)]
        assert names == [CALL_REGISTER, CALL_FAIL]

    def test_cancel_of_an_inline_settled_id_is_a_noop(self, pump):
        sink = Sink()
        (call_id,) = pump.register([probed_call()], sink)
        pump.cancel(call_id)
        pump.cancel(call_id)
        snap = assert_exact(pump)
        assert (snap["completed"], snap["cancelled"]) == (1, 0)
        assert len(call_events(pump.tracer, call_id)) == 2

    def test_callback_that_raises_counts_as_failed_once(self, pump):
        def explode(call_id, rows, error):
            raise RuntimeError("consumer bug")

        pump.register([probed_call()], explode)
        snap = assert_exact(pump)
        assert (snap["failed"], snap["completed"]) == (1, 0)


class TestHitsBypassBreakerAndLimits:
    """The satellite bugfix: a request the cache can answer is not gated
    by (and does not feed) machinery that exists to protect the network."""

    def _tripped_pump(self, clock):
        pump = RequestPump(
            tracer=Tracer(clock=clock),  # the pump, and so its breakers, run on it
            resilience=ResiliencePolicy(breaker=CircuitBreakerConfig(failure_threshold=1)),
        )
        sink = Sink()
        pump.register(
            [probed_call("boom", answer=None, error=TransientWebError("down"))], sink
        )
        assert pump.wait(sink.done.is_set, 5) and pump.quiesce()
        assert pump.breakers()["AV"]["state"] == "open"
        return pump

    def test_hit_is_served_while_the_breaker_is_open(self):
        pump = self._tripped_pump(VirtualClock())
        try:
            hit, miss = Sink(), Sink()
            (hit_id,) = pump.register([probed_call("cached")], hit)
            assert hit.outcomes == {hit_id: (ROWS, None)}
            assert pump.stats.snapshot()["breaker_open_rejections"] == 0
            assert pump.breakers()["AV"]["rejections"] == 0
            # ... while a request that needs the network is still refused.
            (miss_id,) = pump.register([probed_call("uncached", answer=None)], miss)
            assert pump.wait(miss.done.is_set, 5) and pump.quiesce()
            assert isinstance(miss.outcomes[miss_id][1], BreakerOpenError)
            assert pump.stats.snapshot()["breaker_open_rejections"] == 1
            assert_exact(pump)
        finally:
            pump.shutdown()

    def test_hit_during_half_open_leaves_the_breaker_half_open(self):
        clock = VirtualClock()
        pump = self._tripped_pump(clock)
        try:
            clock.advance(11.0)  # past the recovery timeout
            assert pump.breakers()["AV"]["state"] == "half_open"
            hit = Sink()
            pump.register([probed_call("cached")], hit)
            assert hit.done.is_set()
            state = pump.breakers()["AV"]
            # A hit says nothing about the destination: not closed by it,
            # and the one half-open probe slot is still free ...
            assert state["state"] == "half_open" and state["closes"] == 0
            real = Sink()
            pump.register([probed_call("real", answer=None)], real)
            assert pump.wait(real.done.is_set, 5) and pump.quiesce()
            # ... for the real request that closes it.
            assert pump.breakers()["AV"]["state"] == "closed"
            assert_exact(pump)
        finally:
            pump.shutdown()

    def test_replayed_failure_does_not_feed_the_breaker(self):
        pump = RequestPump(
            resilience=ResiliencePolicy(
                breaker=CircuitBreakerConfig(failure_threshold=1)
            )
        )
        try:
            pump.register([probed_call(answer=RuntimeError("replayed failure"))], Sink())
            assert pump.stats.snapshot()["failed"] == 1
            assert pump.breakers() == {}  # never consulted, never told
        finally:
            pump.shutdown()

    def test_hit_does_not_queue_behind_a_full_destination(self):
        pump = RequestPump(limits=PumpLimits(per_destination={"AV": 1}))
        try:
            release, slow, queued, hit = threading.Event(), Sink(), Sink(), Sink()
            went_out = []
            pump.register(
                [probed_call("slow", None, went_out=went_out, release=release)], slow
            )
            pump.register(
                [probed_call("next", None, went_out=went_out, release=release)], queued
            )
            assert went_out == ["slow"]  # the one slot is taken
            (hit_id,) = pump.register([probed_call("cached")], hit)
            assert hit.outcomes == {hit_id: (ROWS, None)}  # did not wait
            snap = pump.stats.snapshot()
            assert (snap["in_flight"], snap["queued"]) == (1, 1)
            assert not slow.done.is_set() and went_out == ["slow"]
            release.set()
            assert pump.wait(slow.done.is_set, 5) and pump.wait(queued.done.is_set, 5)
            assert pump.quiesce()
            assert_exact(pump)
        finally:
            pump.shutdown()


class TestCoalescingStillCounts:
    """In-query dedup and cross-query single-flight are keyed on calls in
    flight; when the first registrant was a miss they count as before."""

    def test_single_flight_followers_of_a_miss_coalesce(self):
        pump = RequestPump(tracer=Tracer(), single_flight=True)
        try:
            release, went_out, sink = threading.Event(), [], Sink(3)
            for query in ("q0", "q1", "q2"):
                pump.register(
                    [probed_call("hot", None, went_out=went_out, release=release)],
                    sink,
                    query_id=query,
                )
            release.set()
            assert pump.wait(sink.done.is_set, 5) and pump.quiesce()
            snap = assert_exact(pump)
            assert (snap["completed"], snap["coalesced"]) == (3, 2)
            assert went_out == ["hot"]
            assert all(outcome == (ROWS, None) for outcome in sink.outcomes.values())
        finally:
            pump.shutdown()

    def test_context_dedup_counts_hits_and_misses_alike(self, pump):
        for answer in (None, ROWS):  # first registrant a miss, then a hit
            context = AsyncContext(pump)
            asked = []

            def probe(answer=answer):
                asked.append(1)
                return answer

            def run(attempt=0):
                return ROWS
                yield

            ids = context.register(
                [ExternalCall("same", "AV", run, probe) for _ in range(3)]
            ) + context.register([ExternalCall("same", "AV", run, probe)])
            assert len(set(ids)) == 1 and asked == [1]
            assert context.stats()["dedup_hits"] == 3
            assert context.stats()["calls_registered"] == 1
            context.wait_for_any(ids, timeout=5)
            for _ in ids:  # one lease per registrant
                assert context.take_result(ids[0]) == ROWS
        assert pump.quiesce()
        assert_exact(pump)


def test_registrations_cancels_and_fan_out_race_to_exact_counts():
    """Hits, misses, joins and cancels from more threads than cores, with a
    short switch interval: a lost update in the call table would break
    ``registered == settled`` or leave a record behind."""
    pump = RequestPump(single_flight=True)
    delivered = Counter()
    lock = threading.Lock()

    def on_complete(call_id, rows, error):
        with lock:
            delivered[call_id] += 1

    def worker(seed):
        for i in range(150):
            key = "k{}".format((seed + i) % 5)
            answer = ROWS if i % 3 == 0 else None
            if i % 2:
                ids = pump.register(
                    [probed_call(key, answer), probed_call(key + "b", None)], on_complete
                )
            else:
                ids = pump.register([probed_call(key, answer)], on_complete)
            if i % 4 == 1:
                for call_id in ids:
                    pump.cancel(call_id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert pump.quiesce(timeout=10.0)
        snap = assert_exact(pump)
        assert snap["registered"] == 6 * (75 * 2 + 75)
        assert set(delivered.values()) <= {1}  # nobody was told twice
        assert len(delivered) == snap["completed"] + snap["failed"]
    finally:
        sys.setswitchinterval(interval)
        pump.shutdown()


def test_contexts_sharing_a_pump_take_every_row_once():
    """Queries on more threads than cores share one single-flight pump;
    each registers bursts of hits and misses through ``AsyncContext.open``
    and waits for its misses, which whichever thread drives stores into
    their contexts without those contexts' lock.  Every query gets each
    call's own rows exactly once, and the accounting stays exact."""
    pump = RequestPump(single_flight=True)
    problems = []

    def call(key, hit):
        rows = [{"count": key}]

        def run(attempt=0):
            yield 0.0005
            return rows

        return ExternalCall(key, "AV", run, (lambda: rows) if hit else (lambda: None))

    def worker(seed):
        context = AsyncContext(pump)
        for i in range(60):
            keys = ["k{}".format((seed + i + j) % 9) for j in range(3)]
            ids, answered = context.open([call(key, j == 0) for j, key in enumerate(keys)])
            taken = {cid: answered[cid] for cid in ids if cid in answered}
            pending = [cid for cid in ids if cid not in answered]
            while pending:
                done = context.wait_for_any(pending, timeout=10)
                taken.update((cid, context.take_result(cid)) for cid in done)
                pending = [cid for cid in pending if cid not in done]
            got = [taken[cid][0]["count"] for cid in ids]
            if got != keys:
                problems.append((seed, i, got, keys))
        if context._results or context._leases or context._by_key:
            problems.append((seed, "left behind"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        assert pump.quiesce(timeout=10.0)
        snap = assert_exact(pump)
        assert snap["registered"] == 6 * 60 * 3
    finally:
        sys.setswitchinterval(interval)
        pump.shutdown()


# -- through an engine ---------------------------------------------------------

SIGS_COUNT = (
    "Select Name, Count From Sigs, WebCount Where Name = T1 and T2 = 'computer'"
)
SIGS = 37  # rows of Sigs = distinct calls of the query above


@pytest.fixture(scope="module")
def web():
    return default_web()


@pytest.fixture()
def db():
    return load_all(Database())


class TestWarmQueries:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_warm_query_never_leaves_the_query_thread(self, web, db, mode):
        cache = ResultCache()
        engine = WsqEngine(
            database=db, web=web, cache=cache, obs=Observability.enabled()
        )
        try:
            cold = engine.execute(SIGS_COUNT, mode=mode)
            assert engine.pump.quiesce()
            assert cache.misses == SIGS  # each distinct call, counted once
            sent = engine.clients["AV"].requests_sent
            before = engine.pump.stats.snapshot()
            mark = len(engine.tracer)

            warm = engine.execute(SIGS_COUNT, mode=mode)
            assert engine.pump.quiesce(timeout=0)  # nothing was ever pending
            after = assert_exact(engine.pump)
            assert sorted(warm.rows) == sorted(cold.rows)
            assert cache.misses == SIGS  # moved by 0
            assert cache.hits == SIGS
            assert engine.clients["AV"].requests_sent == sent
            assert after["registered"] - before["registered"] == SIGS
            assert after["completed"] - before["completed"] == SIGS
            assert after["max_in_flight"] == before["max_in_flight"]
            sequences = Counter(
                tuple(e.name for e in call_events(engine.tracer, call_id))
                for call_id in {
                    e.call_id
                    for e in engine.tracer.events()[mark:]
                    if e.name == CALL_REGISTER
                }
            )
            assert sequences == {(CALL_REGISTER, CALL_COMPLETE): SIGS}
            warm_records = [
                record
                for record in request_table(engine.tracer.events()[mark:]).values()
                if record.registered_at is not None
            ]
            assert len(warm_records) == SIGS
            assert all(r.issued_at is None and r.mode == mode for r in warm_records)
        finally:
            engine.pump.shutdown()


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wsq_query(), wsq_query())
def test_sync_equals_async_over_a_half_warm_cache(warmer, sql):
    """The sync ≡ async oracle with a cache that holds *some* of the
    query's calls (whatever an unrelated earlier query left behind): hits
    settle inline, misses go out, and both modes still agree with an
    uncached engine."""
    web, results = default_web(), {}
    expected = multiset(WsqEngine(database=load_all(Database()), web=web, cache=False).run(sql))
    for mode in ("sync", "async"):
        engine = WsqEngine(
            database=load_all(Database()),
            web=web,
            cache=ResultCache(),
            obs=Observability.enabled(),
        )
        try:
            engine.run(warmer, mode="sync")
            results[mode] = multiset(engine.run(sql, mode=mode))
            assert engine.pump.quiesce()
            assert_exact(engine.pump)
        finally:
            engine.pump.shutdown()
    assert results["sync"] == results["async"] == expected
