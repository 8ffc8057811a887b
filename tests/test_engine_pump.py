"""One pump per engine, built one way, whose thread runs only while needed.

Every engine handed no pump builds its own single-flight pump, observed
or not, so switching tracing on cannot change what the engine sends.
The pump's thread exits once every call has settled and nothing new came
for a short linger, and the next registration starts a new one: hundreds
of engines left unshut hold no idle thread, and what the pump knows (its
breakers) outlives the thread.
"""

import threading
import time

import pytest

from repro.asynciter.pump import RequestPump
from repro.asynciter.resilience import CircuitBreakerConfig, ResiliencePolicy
from repro.asynciter.rewrite import rewrite_logical
from repro.bench.workloads import template_queries
from repro.obs import Observability
from repro.plan.physical import lower
from repro.plan.planner import Planner
from repro.sql.parser import parse_select
from repro.util.errors import BreakerOpenError, PlanError
from repro.vtables.base import ExternalCall
from repro.web.latency import UniformLatency
from repro.wsq import WsqEngine

WEB_QUERY = "Select Count From WebCount Where T1 = 'Utah'"


def pump_threads(name=None):
    """Live pump threads (all of them, or those called *name*)."""
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("reqpump") and (name is None or thread.name == name)
    ]


def settle_threads(bound, name=None, timeout=5.0):
    """Wait until at most *bound* pump threads are alive; returns the count."""
    deadline = time.monotonic() + timeout
    while len(pump_threads(name)) > bound and time.monotonic() < deadline:
        time.sleep(0.01)
    return len(pump_threads(name))


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


class Outcomes:
    """``on_complete`` sink: every outcome, and an event per call count."""

    def __init__(self):
        self.seen = []
        self.lock = threading.Lock()
        self.changed = threading.Condition(self.lock)

    def __call__(self, call_id, rows, error):
        with self.lock:
            self.seen.append((rows, error))
            self.changed.notify_all()

    def wait(self, count, timeout=2.0):
        with self.lock:
            return self.changed.wait_for(lambda: len(self.seen) >= count, timeout)


class TestObservingDoesNotChangeWhatIsSent:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_four_threads_register_and_coalesce_alike(self, web, paper_db, mode):
        """Four threads run one Template-1 query at once, after a warm-up,
        with no cache and overlapping 5-10 ms calls: the pump's counts are
        the same whether the engine is observed or not."""
        sql = template_queries(1, instances=1)[0]

        def probe(obs):
            engine = WsqEngine(
                database=paper_db, web=web, cache=False,
                latency=UniformLatency(0.005, 0.010), obs=obs,
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


class TestPumpLifecycle:
    def test_engines_left_unshut_hold_no_idle_thread(self, web, paper_db):
        """200 observed engines each run one web query and are never shut
        down; once their pumps settle, their threads are gone."""
        before = len(pump_threads())
        engines = []
        for _ in range(200):
            engine = WsqEngine(
                database=paper_db, web=web, cache=False, obs=Observability.enabled()
            )
            assert len(engine.execute(WEB_QUERY).rows) == 1
            assert engine.pump.quiesce(timeout=2.0)
            engines.append(engine)
        assert len({id(engine.pump) for engine in engines}) == 200
        assert settle_threads(before + 2) <= before + 2

    def test_registration_after_an_idle_exit_completes(self):
        pump = RequestPump(name="reqpump-idle-restart")
        outcomes = Outcomes()
        try:
            for round_number in range(1, 4):
                pump.register([quick_call(("k", round_number))], outcomes)
                assert outcomes.wait(round_number)
                assert pump.quiesce(timeout=2.0)
                assert settle_threads(0, pump.name) == 0
        finally:
            pump.shutdown()
        assert [rows for rows, _ in outcomes.seen] == [[{"count": 1}]] * 3
        snapshot = pump.stats.snapshot()
        assert (snapshot["registered"], snapshot["completed"]) == (3, 3)

    def test_an_open_breaker_outlives_the_thread(self):
        pump = RequestPump(
            name="reqpump-idle-breaker",
            resilience=ResiliencePolicy(breaker=CircuitBreakerConfig(failure_threshold=2)),
        )
        outcomes = Outcomes()
        try:
            for n in range(2):
                pump.register([failing_call(("down", n))], outcomes)
            assert outcomes.wait(2)
            assert pump.quiesce(timeout=2.0)
            assert settle_threads(0, pump.name) == 0
            assert pump.breakers()["AV"]["state"] == "open"
            pump.register([failing_call(("down", 2))], outcomes)
            assert outcomes.wait(3)
        finally:
            pump.shutdown()
        assert isinstance(outcomes.seen[2][1], BreakerOpenError)
        assert pump.stats.snapshot()["breaker_open_rejections"] == 1


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
