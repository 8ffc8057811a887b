"""Cache hits complete on the registering thread (DESIGN.md §5, §11.3).

An :class:`~repro.vtables.base.ExternalCall` carries a ``probe`` — the one
cache read of its request.  ``RequestPump`` asks it once, at registration;
a fresh or stale hit, a negatively cached failure or a spent deadline
settles the call there and then: counted and traced like any other call
(``call.register → call.complete|fail``, ``attempts=0``), but with no
coroutine, no slot, no breaker and no loop wake-up.  Only a miss goes out.

The first half drives the pump directly with hand-made probes; the second
runs queries through an engine with a cache in front of it, in both modes.
"""

import asyncio
import sys
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import PumpLimits, RequestPump
from repro.asynciter.resilience import (
    CircuitBreakerConfig,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.datasets import load_all
from repro.obs import Observability
from repro.obs.analysis import request_table
from repro.obs.trace import (
    CALL_COMPLETE,
    CALL_FAIL,
    CALL_REGISTER,
    Tracer,
)
from repro.serve import Deadline
from repro.storage import Database
from repro.util.errors import (
    BreakerOpenError,
    CachedFailureError,
    ExecutionError,
    QueryDeadlineExceeded,
    TransientWebError,
)
from repro.util.timing import VirtualClock
from repro.vtables.base import ExternalCall
from repro.web.cache import CachePolicy, ResultCache
from repro.web.faults import FaultModel
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

    *went_out* collects one entry per attempt that reached the coroutine;
    *release* (an Event) holds the coroutine open until set.
    """

    async def run(attempt=0):
        if went_out is not None:
            went_out.append(key)
        while release is not None and not release.is_set():
            await asyncio.sleep(0.002)
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
    @pytest.mark.parametrize("batched", [False, True])
    def test_hit_settles_before_register_returns(self, pump, batched):
        sink, went_out = Sink(), []
        call = probed_call(went_out=went_out)
        if batched:
            (call_id,) = pump.register_batch([call], sink, query_id="q")
        else:
            call_id = pump.register(call, sink, query_id="q")
        # Settled already, on this thread: no waiting, no quiescing.
        assert sink.outcomes == {call_id: (ROWS, None)}
        assert sink.threads == {threading.get_ident()}
        assert pump.quiesce(timeout=0)
        snap = assert_exact(pump)
        assert (snap["registered"], snap["completed"]) == (1, 1)
        assert snap["max_in_flight"] == 0  # no slot was taken
        assert went_out == []  # no coroutine was built
        events = call_events(pump.tracer, call_id)
        assert [e.name for e in events] == [CALL_REGISTER, CALL_COMPLETE]
        assert events[0].args.get("batch") == (1 if batched else None)
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

        async def run(attempt=0):
            went_out.append(attempt)
            return ROWS

        def probe():
            asked.append(1)
            return None

        call_id = pump.register(ExternalCall("k", "AV", run, probe), sink)
        assert sink.done.wait(5) and pump.quiesce()
        assert asked == [1] and went_out == [0]
        assert sink.outcomes == {call_id: (ROWS, None)}
        assert sink.threads != {threading.get_ident()}
        names = [e.name for e in call_events(pump.tracer, call_id)]
        assert names == [CALL_REGISTER, "call.enqueue", "call.issue", CALL_COMPLETE]
        assert_exact(pump)

    def test_empty_result_is_a_hit_not_a_miss(self, pump):
        # WebPages with no hits caches []; only None means "go and ask".
        sink, went_out = Sink(), []
        call_id = pump.register(probed_call(answer=[], went_out=went_out), sink)
        assert sink.outcomes == {call_id: ([], None)} and went_out == []

    def test_replayed_failure_fails_inline(self, pump):
        sink, went_out = Sink(), []
        failure = CachedFailureError("negatively cached failure for 'k'")
        call_id = pump.register(probed_call(answer=failure, went_out=went_out), sink)
        assert sink.outcomes == {call_id: (None, failure)}
        assert sink.threads == {threading.get_ident()} and went_out == []
        snap = assert_exact(pump)
        assert (snap["failed"], snap["completed"]) == (1, 0)
        names = [e.name for e in call_events(pump.tracer, call_id)]
        assert names == [CALL_REGISTER, CALL_FAIL]

    def test_expired_deadline_fails_a_would_be_hit_before_the_read(self, pump):
        clock = VirtualClock()
        deadline = Deadline(0.0, clock=clock)
        clock.advance(0.001)
        asked, sink = [], Sink()

        def probe():
            asked.append(1)
            return ROWS

        async def run(attempt=0):
            return ROWS

        call_id = pump.register(
            ExternalCall("k", "AV", run, probe), sink, deadline=deadline
        )
        rows, error = sink.outcomes[call_id]
        assert rows is None and isinstance(error, QueryDeadlineExceeded)
        assert asked == []  # the cache was not even read
        snap = assert_exact(pump)
        assert snap["failed"] == 1
        # Exactly what the coroutine's enqueue check counts for a miss.
        assert snap["per_destination"]["AV"]["deadline_expired"] == 1

    def test_cancel_of_an_inline_settled_id_is_a_noop(self, pump):
        sink = Sink()
        call_id = pump.register(probed_call(), sink)
        pump.cancel(call_id)
        pump.cancel(call_id)
        snap = assert_exact(pump)
        assert (snap["completed"], snap["cancelled"]) == (1, 0)
        assert len(call_events(pump.tracer, call_id)) == 2

    def test_callback_that_raises_counts_as_failed_once(self, pump):
        def explode(call_id, rows, error):
            raise RuntimeError("consumer bug")

        pump.register(probed_call(), explode)
        snap = assert_exact(pump)
        assert (snap["failed"], snap["completed"]) == (1, 0)


class TestHitsBypassBreakerAndLimits:
    """The satellite bugfix: a request the cache can answer is not gated
    by (and does not feed) machinery that exists to protect the network."""

    def _tripped_pump(self, now):
        pump = RequestPump(
            tracer=Tracer(),
            resilience=ResiliencePolicy(
                breaker=CircuitBreakerConfig(
                    failure_threshold=1, recovery_timeout=10.0, clock=lambda: now[0]
                )
            ),
        )
        sink = Sink()
        pump.register(
            probed_call("boom", answer=None, error=TransientWebError("down")), sink
        )
        assert sink.done.wait(5) and pump.quiesce()
        assert pump.breakers()["AV"]["state"] == "open"
        return pump

    def test_hit_is_served_while_the_breaker_is_open(self):
        pump = self._tripped_pump([0.0])
        try:
            hit, miss = Sink(), Sink()
            hit_id = pump.register(probed_call("cached"), hit)
            assert hit.outcomes == {hit_id: (ROWS, None)}
            assert pump.stats.snapshot()["breaker_open_rejections"] == 0
            assert pump.breakers()["AV"]["rejections"] == 0
            # ... while a request that needs the network is still refused.
            miss_id = pump.register(probed_call("uncached", answer=None), miss)
            assert miss.done.wait(5) and pump.quiesce()
            assert isinstance(miss.outcomes[miss_id][1], BreakerOpenError)
            assert pump.stats.snapshot()["breaker_open_rejections"] == 1
            assert_exact(pump)
        finally:
            pump.shutdown()

    def test_hit_during_half_open_leaves_the_breaker_half_open(self):
        now = [0.0]
        pump = self._tripped_pump(now)
        try:
            now[0] = 11.0  # past the recovery timeout
            assert pump.breakers()["AV"]["state"] == "half_open"
            hit = Sink()
            pump.register(probed_call("cached"), hit)
            assert hit.done.is_set()
            state = pump.breakers()["AV"]
            # A hit says nothing about the destination: not closed by it,
            # and the one half-open probe slot is still free ...
            assert state["state"] == "half_open" and state["closes"] == 0
            real = Sink()
            pump.register(probed_call("real", answer=None), real)
            assert real.done.wait(5) and pump.quiesce()
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
            pump.register(probed_call(answer=CachedFailureError("replayed")), Sink())
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
                probed_call("slow", None, went_out=went_out, release=release), slow
            )
            pump.register(
                probed_call("next", None, went_out=went_out, release=release), queued
            )
            while went_out != ["slow"]:  # the one slot is taken
                assert not slow.done.wait(0.002)
            hit_id = pump.register(probed_call("cached"), hit)
            assert hit.outcomes == {hit_id: (ROWS, None)}  # did not wait
            snap = pump.stats.snapshot()
            assert (snap["in_flight"], snap["queued"]) == (1, 1)
            assert not slow.done.is_set() and went_out == ["slow"]
            release.set()
            assert slow.done.wait(5) and queued.done.wait(5) and pump.quiesce()
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
                    probed_call("hot", None, went_out=went_out, release=release),
                    sink,
                    query_id=query,
                )
            release.set()
            assert sink.done.wait(5) and pump.quiesce()
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

            async def run(attempt=0):
                return ROWS

            ids = context.register_batch(
                [ExternalCall("same", "AV", run, probe) for _ in range(3)]
            ) + [context.register(ExternalCall("same", "AV", run, probe))]
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
                ids = pump.register_batch(
                    [probed_call(key, answer), probed_call(key + "b", None)], on_complete
                )
            else:
                ids = [pump.register(probed_call(key, answer), on_complete)]
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
            database=db, web=web, cache=cache, obs=Observability.enabled(), shards=1
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

    @pytest.mark.parametrize("on_error", ["raise", "drop", "null"])
    def test_cached_failure_replays_alike_in_both_modes(self, web, db, on_error):
        outcomes = {}
        for mode in ("sync", "async"):
            engine = WsqEngine(
                database=db,
                web=web,
                cache=ResultCache(policy=CachePolicy(negative_ttl=1e9)),
                faults=FaultModel(seed=11, transient_rate=0.4),
                resilience=ResiliencePolicy(
                    retry=RetryPolicy(max_attempts=1, base_backoff=0.0, jitter=0.0)
                ),
                on_error=on_error,
                shards=1,
            )
            try:
                first = self._run(engine, mode)
                sent = engine.clients["AV"].requests_sent
                failed = engine.pump.stats.snapshot()["failed"]
                assert failed > 0  # the schedule did inject failures
                again = self._run(engine, mode)
                assert again == first
                assert engine.pump.quiesce(timeout=5.0)
                snap = assert_exact(engine.pump)
                if on_error != "raise":
                    # Both runs went through every call, every failure of
                    # the first was final and so recorded: the re-run
                    # replays them without asking the network.  (Under
                    # "raise" the first failure aborts the query and
                    # cancels whatever else was in flight, so how much
                    # the re-run finds cached is a matter of timing.)
                    assert engine.clients["AV"].requests_sent == sent
                    assert snap["failed"] == 2 * failed
                    assert snap["cancelled"] == 0
                assert engine.pump.breakers() == {}
                outcomes[mode] = again
            finally:
                engine.pump.shutdown()
        assert outcomes["sync"] == outcomes["async"]

    @staticmethod
    def _run(engine, mode):
        """Sorted rows, or the web-level cause of the failure."""
        try:
            return sorted(engine.execute(SIGS_COUNT, mode=mode).rows, key=repr)
        except (ExecutionError, TransientWebError, CachedFailureError) as exc:
            while exc.__cause__ is not None:
                exc = exc.__cause__
            # First run: the injected fault; re-run: its cached record.
            assert isinstance(exc, (TransientWebError, CachedFailureError))
            return "failed"


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
