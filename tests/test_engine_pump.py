"""One pump per engine, built one way, and no thread of its own.

Every engine handed no pump builds its own single-flight pump, observed
or not, so switching tracing on cannot change what the engine sends.
The pump starts no thread: the query thread issues its calls and drives
the pump's heap while it waits, so a query leaves the process's thread
count as it found it, and what the pump knows (its breakers) lasts until
``shutdown()``, which also ends a waiting query at once.
"""

import threading
import time

import pytest

from repro.asynciter.pump import RequestPump
from repro.asynciter.resilience import CircuitBreakerConfig, ResiliencePolicy
from repro.asynciter.rewrite import rewrite_logical
from repro.bench.workloads import template_queries
from repro.datasets import load_all
from repro.obs import Observability
from repro.plan.physical import lower
from repro.plan.planner import Planner
from repro.sql.parser import parse_select
from repro.storage import Database
from repro.util.errors import BreakerOpenError, ExecutionError, PlanError, PumpShutDown
from repro.vtables.base import ExternalCall
from repro.web.latency import FixedLatency, UniformLatency
from repro.wsq import WsqEngine

WEB_QUERY = "Select Count From WebCount Where T1 = 'Utah'"
SHUTDOWN_QUERY = "Select Name, Count From States, WebCount Where Name = T1"


def quick_call(key):
    def run(attempt=0):
        return [{"count": 1}]
        yield  # an attempt generator

    return ExternalCall(key, "AV", run)


def failing_call(key):
    def run(attempt=0):
        raise ValueError("destination down")
        yield  # an attempt generator

    return ExternalCall(key, "AV", run)


class TestObservingDoesNotChangeWhatIsSent:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_four_threads_register_and_coalesce_alike(self, web, paper_db, mode):
        """Four threads run one Template-1 query at once, after a warm-up,
        with no cache and overlapping calls: the pump's counts are the same
        whether the engine is observed or not."""
        sql = template_queries(1, instances=1)[0]
        # An async query registers all 50 calls before it waits (one burst
        # per row at batch size 1), and a call that settles before another
        # thread registers it is sent again, not joined.  0.2 s flights
        # outlast every thread's registrations, so all four threads join
        # the same flights whichever one the scheduler runs first.
        latency = FixedLatency(0.2) if mode == "async" else UniformLatency(0.005, 0.010)

        def probe(obs):
            engine = WsqEngine(
                database=paper_db, web=web, cache=False, latency=latency, obs=obs,
            )
            try:
                expected = sorted(engine.execute(sql, mode=mode).rows)
                assert engine.pump.quiesce(timeout=5.0)
                before = engine.pump.stats.snapshot()
                start = threading.Barrier(4)
                answers = []

                def client():
                    start.wait()
                    answers.append(sorted(engine.execute(sql, mode=mode).rows))

                clients = [threading.Thread(target=client) for _ in range(4)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=30)
                assert answers == [expected] * 4
                assert engine.pump.quiesce(timeout=5.0)
                after = engine.pump.stats.snapshot()
            finally:
                engine.pump.shutdown()
            return {
                key: after[key] - before[key] for key in ("registered", "coalesced")
            }

        # A thread the scheduler runs more than one flight (5-10 ms) late
        # anchors its own flight instead of joining, so on a loaded host
        # a pair can differ by a call or two: such a pair is measured
        # again, at most three times in all.
        for _ in range(3):
            plain = probe(None)
            observed = probe(Observability.enabled())
            if plain == observed:
                break
        assert plain == observed
        assert plain["registered"] == 4 * 50
        assert plain["coalesced"] > 0


class TestNoPumpThread:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_a_web_query_starts_no_thread(self, web, paper_db, mode):
        """Fifty 2-5 ms calls go out and are waited for on the query
        thread: the process has as many threads after as before."""
        engine = WsqEngine(
            database=paper_db, web=web, cache=False, latency=UniformLatency(0.002, 0.005)
        )
        before = threading.active_count()
        rows = engine.execute(template_queries(1, instances=1)[0], mode=mode).rows
        assert engine.pump.quiesce(timeout=5.0)
        assert rows and threading.active_count() == before
        assert engine.pump.stats.snapshot()["registered"] == 50


class TestShutdown:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_shutdown_mid_query_raises_promptly(self, mode):
        """A query waiting on 0.3 s calls when its pump shuts down raises
        within 0.1 s, and the calls it left are counted as cancelled."""
        engine = WsqEngine(
            database=load_all(Database()), latency=FixedLatency(0.3), cache=False
        )
        raised = []

        def run():
            try:
                engine.execute(SHUTDOWN_QUERY, mode=mode)
            except ExecutionError as exc:
                raised.append((time.monotonic(), exc))

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.1)  # the query waits on its first call(s)
        stopped = time.monotonic()
        engine.pump.shutdown()
        thread.join(timeout=70.0)
        assert not thread.is_alive() and len(raised) == 1
        at, error = raised[0]
        assert "request pump is shut down" in str(error)
        assert at - stopped <= 0.1
        assert engine.pump.quiesce(timeout=2.0)
        snapshot = engine.pump.stats.snapshot()
        assert snapshot["cancelled"] >= 1 and snapshot["failed"] == 0
        settled = snapshot["completed"] + snapshot["cancelled"]
        assert snapshot["registered"] == settled

    @pytest.mark.parametrize("on_error", ["drop", "null"])
    def test_on_error_does_not_degrade_a_shutdown(self, on_error):
        """A shutdown is not a failed call: a query that would drop or
        null a failed call's tuples raises instead of answering short."""
        engine = WsqEngine(
            database=load_all(Database()), latency=FixedLatency(0.3), cache=False,
            on_error=on_error,
        )
        raised = []

        def run():
            try:
                engine.execute(SHUTDOWN_QUERY)
            except PumpShutDown as exc:
                raised.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.1)  # the query waits on its calls
        engine.pump.shutdown()
        thread.join(timeout=70.0)
        assert not thread.is_alive() and len(raised) == 1

    def test_an_open_breaker_lasts_until_shutdown(self):
        pump = RequestPump(
            resilience=ResiliencePolicy(breaker=CircuitBreakerConfig(failure_threshold=2)),
        )
        outcomes = []

        def sink(call_id, rows, error):
            outcomes.append((rows, error))

        try:
            for n in range(2):
                pump.register([failing_call(("down", n))], sink)
            assert pump.quiesce(timeout=2.0)
            assert pump.breakers()["AV"]["state"] == "open"
            pump.register([failing_call(("down", 2))], sink)
            assert isinstance(outcomes[2][1], BreakerOpenError)
            assert pump.stats.snapshot()["breaker_open_rejections"] == 1
            pump.shutdown()
            assert pump.breakers() == {}
            pump.register([quick_call("up")], sink)
            assert outcomes[3] == ([{"count": 1}], None)
        finally:
            pump.shutdown()


class TestNoPumpOutsideTheEngine:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_an_external_scan_lowers_only_with_a_context(self, web, paper_db, mode):
        """There is no pump to fall back on: a scan of a virtual table,
        blocking or not, is lowered only under a query's context."""
        engine = WsqEngine(database=paper_db, web=web, cache=False)
        logical = Planner(paper_db, engine.vtables, options=engine.config).plan_logical(
            parse_select(WEB_QUERY)
        )
        if mode == "async":
            logical, _ = rewrite_logical(logical, engine.config)
        with pytest.raises(PlanError, match="requires an AsyncContext"):
            lower(logical, engine.config)
        assert engine.execute(WEB_QUERY, mode=mode).rows == engine.execute(WEB_QUERY).rows
