"""Fault injection and resilience: FaultModel, retries, breakers, pump.

Unit coverage for the chaos layer (the end-to-end WSQ acceptance runs
live in ``tests/test_faults.py``): the deterministic fault schedule, the
retry/backoff/classification policy, the circuit-breaker state machine
(driven by a fake clock), the pump's resilient execution loop, and the
accounting/lifecycle fixes (cancellation counting, shutdown-while-busy,
timeout diagnostics, ReqSync graceful degradation).
"""

import asyncio
import threading
import time

import pytest

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import RequestPump
from repro.asynciter.reqsync import ReqSync
from repro.asynciter.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitBreakerConfig,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.exec import RowsScan, collect
from repro.relational.placeholder import Placeholder
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.util.errors import (
    BreakerOpenError,
    EngineOutageError,
    ExecutionError,
    HardWebError,
    RequestTimeoutError,
    TransientWebError,
)
from repro.vtables.base import ExternalCall
from repro.web.faults import HARD, OUTAGE, TRANSIENT, FaultModel


class FakeClock:
    """Injectable monotonic clock for deterministic breaker tests."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# FaultModel
# ---------------------------------------------------------------------------


class TestFaultModel:
    def test_schedule_is_deterministic(self):
        a = FaultModel(seed=3, transient_rate=0.3, hard_rate=0.05)
        b = FaultModel(seed=3, transient_rate=0.3, hard_rate=0.05)
        for i in range(200):
            expr = "expr-{}".format(i)
            for attempt in range(3):
                fa = a.peek("AV", expr, attempt)
                fb = b.peek("AV", expr, attempt)
                assert (fa is None) == (fb is None)
                if fa is not None:
                    assert fa.kind == fb.kind

    def test_different_seeds_differ(self):
        a = FaultModel(seed=1, transient_rate=0.3)
        b = FaultModel(seed=2, transient_rate=0.3)
        kinds_a = [a.peek("AV", "e{}".format(i)) is not None for i in range(200)]
        kinds_b = [b.peek("AV", "e{}".format(i)) is not None for i in range(200)]
        assert kinds_a != kinds_b

    def test_rates_roughly_honoured(self):
        model = FaultModel(seed=0, transient_rate=0.2)
        hits = sum(
            1 for i in range(1000) if model.peek("AV", "q{}".format(i)) is not None
        )
        assert 120 <= hits <= 280  # 20% +/- generous slack

    def test_hard_faults_are_attempt_independent(self):
        model = FaultModel(seed=0, hard_rate=0.5)
        for i in range(100):
            expr = "h{}".format(i)
            kinds = {
                None if fault is None else fault.kind
                for fault in (
                    model.peek("AV", expr, attempt) for attempt in range(4)
                )
            }
            assert len(kinds) == 1  # every attempt agrees

    def test_transient_faults_can_clear_on_retry(self):
        model = FaultModel(seed=0, transient_rate=0.3)
        cleared = 0
        for i in range(300):
            expr = "t{}".format(i)
            first = model.peek("AV", expr, 0)
            second = model.peek("AV", expr, 1)
            if first is not None and second is None:
                cleared += 1
        assert cleared > 0  # retries are not provably useless

    def test_outage_window(self):
        model = FaultModel(seed=0, outages=("Google",))
        assert model.is_down("Google")
        fault = model.peek("Google", "anything")
        assert fault.kind == OUTAGE
        assert isinstance(fault.error, EngineOutageError)
        assert model.peek("AV", "anything") is None
        model.end_outage("Google")
        assert model.peek("Google", "anything") is None
        model.begin_outage("AV")
        assert model.peek("AV", "anything").kind == OUTAGE

    def test_counters_track_injections(self):
        model = FaultModel(seed=0, transient_rate=1.0)
        model.fault_for("AV", "x", 0)
        model.fault_for("AV", "y", 0)
        assert model.snapshot()["transient_injected"] == 2
        # peek never counts
        model.peek("AV", "z", 0)
        assert model.snapshot()["transient_injected"] == 2

    def test_final_outcome(self):
        ok = FaultModel(seed=0)
        assert ok.final_outcome("AV", "x", 3) == "ok"
        hard = FaultModel(seed=0, hard_rate=1.0)
        assert hard.final_outcome("AV", "x", 3) == HARD
        down = FaultModel(seed=0, outages=("AV",))
        assert down.final_outcome("AV", "x", 3) == OUTAGE
        always = FaultModel(seed=0, transient_rate=1.0)
        assert always.final_outcome("AV", "x", 3) == TRANSIENT

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultModel(transient_rate=1.5)
        with pytest.raises(ValueError):
            FaultModel(hang_seconds=-1)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.retryable_error(TransientWebError("503"))
        assert policy.retryable_error(RequestTimeoutError("slow"))
        assert policy.retryable_error(EngineOutageError("down"))  # transient family
        assert not policy.retryable_error(HardWebError("404"))
        assert not policy.retryable_error(BreakerOpenError("open"))
        assert not policy.retryable_error(ValueError("bug"))

    def test_should_retry_respects_budget(self):
        policy = RetryPolicy(max_attempts=3)
        exc = TransientWebError("x")
        assert policy.should_retry(exc, 0)
        assert policy.should_retry(exc, 1)
        assert not policy.should_retry(exc, 2)  # third attempt was the last
        assert not policy.should_retry(HardWebError("x"), 0)

    def test_backoff_is_exponential_capped_and_deterministic(self):
        policy = RetryPolicy(
            base_backoff=0.1, multiplier=2.0, max_backoff=0.5, jitter=0.0
        )
        assert policy.backoff_delay("k", 0) == pytest.approx(0.1)
        assert policy.backoff_delay("k", 1) == pytest.approx(0.2)
        assert policy.backoff_delay("k", 2) == pytest.approx(0.4)
        assert policy.backoff_delay("k", 3) == pytest.approx(0.5)  # capped
        jittered = RetryPolicy(base_backoff=0.1, jitter=0.5)
        once = jittered.backoff_delay("k", 1)
        assert once == jittered.backoff_delay("k", 1)  # stable
        # Jitter window: delay * [1 - j/2, 1 + j/2]
        assert 0.2 * 0.75 <= once <= 0.2 * 1.25
        assert jittered.backoff_delay("other", 1) != once  # decorrelated

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(call_timeout=0)


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self, clock, threshold=3, recovery=5.0, probes=1):
        return CircuitBreaker(
            "AV",
            CircuitBreakerConfig(
                failure_threshold=threshold,
                recovery_timeout=recovery,
                half_open_max_calls=probes,
                clock=clock,
            ),
        )

    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = self._breaker(clock, threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.snapshot()["opens"] == 1

    def test_success_resets_the_streak(self):
        clock = FakeClock()
        breaker = self._breaker(clock, threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_open_rejects_without_network(self):
        clock = FakeClock()
        breaker = self._breaker(clock, threshold=1)
        breaker.record_failure()
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.snapshot()["rejections"] == 2

    def test_half_open_after_recovery_timeout(self):
        clock = FakeClock()
        breaker = self._breaker(clock, threshold=1, recovery=5.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(4.9)
        assert breaker.state == OPEN
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN
        assert breaker.snapshot()["half_opens"] == 1

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = self._breaker(clock, threshold=1, recovery=1.0)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.snapshot()["closes"] == 1

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self._breaker(clock, threshold=1, recovery=1.0)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.snapshot()["opens"] == 2
        # The recovery clock restarted at the re-open.
        clock.advance(0.5)
        assert breaker.state == OPEN

    def test_half_open_probe_budget(self):
        clock = FakeClock()
        breaker = self._breaker(clock, threshold=1, recovery=1.0, probes=2)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # probe budget exhausted


# ---------------------------------------------------------------------------
# Pump-level resilience
# ---------------------------------------------------------------------------

_KEY_COUNTER = iter(range(10**9))


def attempt_call(behaviour, destination="AV", delay=0.0, key=None):
    """An ExternalCall whose async path runs ``behaviour(attempt)``."""

    async def run(attempt=0):
        if delay:
            await asyncio.sleep(delay)
        return behaviour(attempt)

    return ExternalCall(
        key if key is not None else ("res", next(_KEY_COUNTER)),
        destination,
        run,
    )


def wait_one(pump, call):
    """Register *call*, block for its completion, return (rows, error)."""
    done = threading.Event()
    payload = {}

    def on_complete(call_id, rows, error):
        payload["rows"], payload["error"] = rows, error
        done.set()

    pump.register(call, on_complete)
    assert done.wait(5)
    return payload["rows"], payload["error"]


def wait_settled(pump, expected, timeout=2.0):
    """Poll until *expected* calls have settled (the done-callback ran)."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        snapshot = pump.stats.snapshot()
        if (
            snapshot["completed"] + snapshot["failed"] + snapshot["cancelled"]
            >= expected
        ):
            return snapshot
        time.sleep(0.005)
    return pump.stats.snapshot()


def fast_retry_policy(max_attempts=3, **kwargs):
    return ResiliencePolicy(
        retry=RetryPolicy(
            max_attempts=max_attempts, base_backoff=0.0, jitter=0.0
        ),
        **kwargs
    )


class TestPumpResilience:
    def test_transient_failure_is_retried_to_success(self):
        pump = RequestPump(resilience=fast_retry_policy(max_attempts=3))
        try:

            def flaky(attempt):
                if attempt < 2:
                    raise TransientWebError("503")
                return [{"count": 7}]

            rows, error = wait_one(pump, attempt_call(flaky))
            assert error is None and rows == [{"count": 7}]
            snapshot = wait_settled(pump, 1)
            assert snapshot["retries"] == 2
            assert snapshot["per_destination"]["AV"]["retries"] == 2
            assert snapshot["failed"] == 0
        finally:
            pump.shutdown()

    def test_retry_budget_exhausts(self):
        pump = RequestPump(resilience=fast_retry_policy(max_attempts=2))
        try:

            def always(attempt):
                raise TransientWebError("503 forever")

            rows, error = wait_one(pump, attempt_call(always))
            assert isinstance(error, TransientWebError)
            snapshot = wait_settled(pump, 1)
            assert snapshot["retries"] == 1
            assert snapshot["failed"] == 1
        finally:
            pump.shutdown()

    def test_hard_error_is_not_retried(self):
        pump = RequestPump(resilience=fast_retry_policy(max_attempts=5))
        try:
            attempts = []

            def hard(attempt):
                attempts.append(attempt)
                raise HardWebError("404")

            rows, error = wait_one(pump, attempt_call(hard))
            assert isinstance(error, HardWebError)
            assert attempts == [0]
            assert pump.stats.snapshot()["retries"] == 0
        finally:
            pump.shutdown()

    def test_call_timeout_enforced(self):
        pump = RequestPump(
            resilience=ResiliencePolicy(call_timeout=0.05)  # no retries
        )
        try:
            rows, error = wait_one(
                pump, attempt_call(lambda a: [{"count": 1}], delay=2.0)
            )
            assert isinstance(error, RequestTimeoutError)
            assert "timed out after 0.05s" in str(error)
            snapshot = wait_settled(pump, 1)
            assert snapshot["timeouts"] == 1
            assert snapshot["per_destination"]["AV"]["timeouts"] == 1
        finally:
            pump.shutdown()

    def test_timeout_then_retry_succeeds(self):
        pump = RequestPump(
            resilience=fast_retry_policy(max_attempts=2, call_timeout=0.1)
        )
        try:

            async def run(attempt=0):
                if attempt == 0:
                    await asyncio.sleep(5)  # first attempt hangs
                return [{"count": 3}]

            call = ExternalCall(("hang", next(_KEY_COUNTER)), "AV", run)
            rows, error = wait_one(pump, call)
            assert error is None and rows == [{"count": 3}]
            snapshot = pump.stats.snapshot()
            assert snapshot["timeouts"] == 1
            assert snapshot["retries"] == 1
        finally:
            pump.shutdown()

    def test_breaker_opens_half_opens_and_closes(self):
        clock = FakeClock()
        pump = RequestPump(
            resilience=ResiliencePolicy(
                breaker=CircuitBreakerConfig(
                    failure_threshold=2, recovery_timeout=5.0, clock=clock
                )
            )
        )
        try:

            def failing(attempt):
                raise TransientWebError("down")

            # Two sequential failures trip the breaker.
            for _ in range(2):
                _, error = wait_one(pump, attempt_call(failing))
                assert isinstance(error, TransientWebError)
            assert pump.snapshot()["breakers"]["AV"]["state"] == OPEN
            # While open: fail fast, no factory invocation.
            invoked = []

            def probe(attempt):
                invoked.append(attempt)
                return [{"count": 1}]

            _, error = wait_one(pump, attempt_call(probe))
            assert isinstance(error, BreakerOpenError)
            assert invoked == []
            snapshot = pump.stats.snapshot()
            assert snapshot["breaker_open_rejections"] == 1
            assert snapshot["per_destination"]["AV"]["breaker_open_rejections"] == 1
            # After the recovery window a probe is admitted and closes it.
            clock.advance(6.0)
            rows, error = wait_one(pump, attempt_call(probe))
            assert error is None and rows == [{"count": 1}]
            breaker = pump.snapshot()["breakers"]["AV"]
            assert breaker["state"] == CLOSED
            assert breaker["half_opens"] == 1
            assert breaker["closes"] == 1
        finally:
            pump.shutdown()

    def test_breakers_are_per_destination(self):
        pump = RequestPump(
            resilience=ResiliencePolicy(
                breaker=CircuitBreakerConfig(failure_threshold=1)
            )
        )
        try:

            def failing(attempt):
                raise TransientWebError("down")

            wait_one(pump, attempt_call(failing, destination="Google"))
            assert pump.snapshot()["breakers"]["Google"]["state"] == OPEN
            rows, error = wait_one(
                pump, attempt_call(lambda a: [{"count": 2}], destination="AV")
            )
            assert error is None  # AV unaffected by Google's breaker
        finally:
            pump.shutdown()

    def test_no_policy_is_todays_behaviour(self):
        pump = RequestPump()  # resilience=None
        try:
            attempts = []

            def flaky(attempt):
                attempts.append(attempt)
                raise TransientWebError("503")

            rows, error = wait_one(pump, attempt_call(flaky))
            assert isinstance(error, TransientWebError)
            assert attempts == [0]  # no retries without a policy
            snapshot = pump.stats.snapshot()
            assert snapshot["retries"] == 0
            assert pump.snapshot()["breakers"] == {}
        finally:
            pump.shutdown()


# ---------------------------------------------------------------------------
# Accounting and lifecycle (the satellite fixes)
# ---------------------------------------------------------------------------


class TestCancellationAccounting:
    def test_cancelled_call_counted_once(self):
        pump = RequestPump()
        try:
            completions = []
            call = attempt_call(lambda a: [{"count": 1}], delay=5.0)
            call_id = pump.register(call, lambda *a: completions.append(a))
            time.sleep(0.05)  # let the call start
            pump.cancel(call_id)
            deadline = time.time() + 2
            while time.time() < deadline:
                if pump.stats.snapshot()["cancelled"] == 1:
                    break
                time.sleep(0.01)
            snapshot = pump.stats.snapshot()
            assert snapshot["cancelled"] == 1
            assert snapshot["completed"] == 0
            assert snapshot["failed"] == 0
            assert snapshot["queued"] == 0
            assert completions == []  # no on_complete for a cancelled call
        finally:
            pump.shutdown()

    def test_double_cancel_counts_once(self):
        pump = RequestPump()
        try:
            call = attempt_call(lambda a: [{"count": 1}], delay=5.0)
            call_id = pump.register(call, lambda *a: None)
            time.sleep(0.05)
            pump.cancel(call_id)
            pump.cancel(call_id)  # idempotent
            time.sleep(0.2)
            snapshot = pump.stats.snapshot()
            assert snapshot["cancelled"] == 1
            assert snapshot["queued"] == 0
        finally:
            pump.shutdown()

    def test_cancel_after_completion_is_a_no_op(self):
        pump = RequestPump()
        try:
            done = threading.Event()
            call_id = pump.register(
                attempt_call(lambda a: [{"count": 1}]), lambda *a: done.set()
            )
            assert done.wait(2)
            time.sleep(0.05)  # let settlement run
            pump.cancel(call_id)
            time.sleep(0.05)
            snapshot = pump.stats.snapshot()
            assert snapshot["completed"] == 1
            assert snapshot["cancelled"] == 0
            assert snapshot["queued"] == 0
        finally:
            pump.shutdown()

    def test_unknown_call_id_cancel_is_safe(self):
        pump = RequestPump()
        try:
            pump.cancel(424242)  # never registered
        finally:
            pump.shutdown()


class TestShutdownWhileBusy:
    def test_shutdown_with_in_flight_calls(self):
        pump = RequestPump()
        completions = []
        for i in range(8):
            pump.register(
                attempt_call(lambda a: [{"count": 1}], delay=10.0, key=("s", i)),
                lambda *a: completions.append(a),
            )
        time.sleep(0.05)
        started = time.perf_counter()
        pump.shutdown()
        assert time.perf_counter() - started < 5  # no deadlock on the join
        seen = len(completions)
        time.sleep(0.2)
        assert len(completions) == seen  # no late on_complete after shutdown
        snapshot = pump.stats.snapshot()
        assert (
            snapshot["completed"] + snapshot["failed"] + snapshot["cancelled"]
            == snapshot["registered"]
        )
        assert snapshot["queued"] == 0
        assert snapshot["in_flight"] == 0

    def test_pump_restarts_cleanly_after_busy_shutdown(self):
        pump = RequestPump()
        for i in range(4):
            pump.register(
                attempt_call(lambda a: [{"count": 1}], delay=10.0, key=("r", i)),
                lambda *a: None,
            )
        time.sleep(0.05)
        pump.shutdown()
        done = threading.Event()
        payload = {}

        def on_complete(call_id, rows, error):
            payload["rows"] = rows
            done.set()

        pump.register(attempt_call(lambda a: [{"count": 9}]), on_complete)
        assert done.wait(2)
        assert payload["rows"] == [{"count": 9}]
        pump.shutdown()


class TestWaitTimeoutDiagnostics:
    def test_timeout_names_destination_and_elapsed(self):
        pump = RequestPump()
        try:
            context = AsyncContext(pump)
            call_id = context.register(
                attempt_call(lambda a: [{"count": 1}], delay=10.0, destination="Google")
            )
            with pytest.raises(ExecutionError) as excinfo:
                context.wait_for_any({call_id}, timeout=0.05)
            message = str(excinfo.value)
            assert "timed out after" in message
            assert "Google" in message
            assert str(call_id) in message
        finally:
            pump.shutdown()

    def test_take_result_error_names_destination(self):
        pump = RequestPump()
        try:
            context = AsyncContext(pump)

            def boom(attempt):
                raise TransientWebError("503 service unavailable")

            call_id = context.register(attempt_call(boom, destination="AV"))
            context.wait_for_any({call_id}, timeout=2)
            with pytest.raises(ExecutionError, match="'AV'"):
                context.take_result(call_id)
            assert context.stats()["call_errors"] == 1
            assert isinstance(context.error_of(call_id), TransientWebError)
            assert context.destination_of(call_id) == "AV"
        finally:
            pump.shutdown()


# ---------------------------------------------------------------------------
# ReqSync graceful degradation
# ---------------------------------------------------------------------------

SCHEMA = Schema(
    [Column("Name", DataType.STR), Column("Value", DataType.INT)],
    allow_duplicates=True,
)


class _MixedScan(RowsScan):
    """Rows whose placeholders mix failing and succeeding calls."""

    def __init__(self, context, specs):
        # specs: (name, rows-or-None, error-or-None)
        super().__init__(SCHEMA, [], name="mixed")
        self.context = context
        self.specs = specs

    def open(self, bindings=None):
        rows = []
        for name, call_rows, error in self.specs:
            def behaviour(attempt, rows=call_rows, error=error):
                if error is not None:
                    raise error
                return rows

            call_id = self.context.register(attempt_call(behaviour))
            rows.append((name, Placeholder(call_id, "value")))
        self.rows_data = rows
        super().open(bindings)


class TestReqSyncOnError:
    @pytest.fixture()
    def pump(self):
        p = RequestPump()
        yield p
        p.shutdown()

    def _specs(self):
        return [
            ("good", [{"value": 1}], None),
            ("bad", None, TransientWebError("503")),
            ("also-good", [{"value": 2}], None),
        ]

    def test_raise_is_the_default(self, pump):
        context = AsyncContext(pump)
        sync = ReqSync(_MixedScan(context, self._specs()), context, wait_timeout=5)
        assert sync.on_error == "raise"
        with pytest.raises(ExecutionError, match="503"):
            collect(sync)

    def test_drop_cancels_the_failed_tuples(self, pump):
        context = AsyncContext(pump)
        sync = ReqSync(
            _MixedScan(context, self._specs()),
            context,
            wait_timeout=5,
            on_error="drop",
        )
        rows = collect(sync)
        assert sorted(rows) == [("also-good", 2), ("good", 1)]
        assert sync.call_errors == 1
        assert sync.tuples_dropped_on_error == 1
        assert sync.values_nulled_on_error == 0
        assert "on_error=drop" in sync.label()

    def test_null_patches_with_nulls(self, pump):
        context = AsyncContext(pump)
        sync = ReqSync(
            _MixedScan(context, self._specs()),
            context,
            wait_timeout=5,
            on_error="null",
        )
        rows = collect(sync)
        assert sorted(rows, key=str) == sorted(
            [("good", 1), ("bad", None), ("also-good", 2)], key=str
        )
        assert sync.call_errors == 1
        assert sync.values_nulled_on_error == 1
        assert sync.tuples_dropped_on_error == 0

    def test_unknown_policy_rejected(self, pump):
        context = AsyncContext(pump)
        with pytest.raises(ExecutionError, match="on_error"):
            ReqSync(_MixedScan(context, []), context, on_error="explode")
