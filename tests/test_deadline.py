"""End-to-end deadlines: the Deadline object and its propagation path.

The deadline is threaded service → engine → AsyncContext → RequestPump
(either mode), with checkpoints at registration, slot acquisition, the
per-attempt timeout, the retry loop, and the query thread's wait
(``AsyncContext.wait_for_any``, in either mode).  These tests pin each
checkpoint plus the composition rule: every external call's effective
timeout is ``min(policy.call_timeout, deadline.remaining())``.
"""

import math
import threading
import time

import pytest

from repro.asynciter.pump import RequestPump
from repro.asynciter.resilience import ResiliencePolicy, RetryPolicy
from repro.serve import Deadline
from repro.storage.database import Database
from repro.util.errors import QueryDeadlineExceeded
from repro.util.timing import VirtualClock
from repro.vtables.base import ExternalCall
from repro.web.latency import FixedLatency, UniformLatency
from repro.wsq import WsqEngine
from repro.datasets import load_all


class TestDeadlineObject:
    def test_unbounded_never_expires(self):
        deadline = Deadline()
        assert deadline.remaining() == math.inf
        assert not deadline.expired
        assert deadline.budget() is None
        assert deadline.budget(2.5) == 2.5

    def test_bounded_remaining_counts_down(self):
        clock = VirtualClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(0.4)
        assert deadline.remaining() == pytest.approx(0.6)
        assert deadline.budget(10.0) == pytest.approx(0.6)
        assert deadline.budget(0.1) == pytest.approx(0.1)
        clock.advance(0.7)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_cancel_expires_immediately_and_records_reason(self):
        deadline = Deadline()  # unbounded, but cancellable
        deadline.cancel("client disconnect")
        assert deadline.expired
        assert deadline.cancelled
        assert deadline.reason == "client disconnect"
        assert deadline.remaining() == 0.0
        deadline.cancel("second reason")  # idempotent: first reason wins
        assert deadline.reason == "client disconnect"


def _call(key, run, destination="AV"):
    return ExternalCall(key, destination, lambda attempt: run())


def _wait_one(pump, call, deadline=None, timeout=5.0):
    """Register one call and wait for its on_complete."""
    box = {}
    done = threading.Event()

    def on_complete(call_id, rows, error):
        box["rows"], box["error"] = rows, error
        done.set()

    pump.register([call], on_complete, deadline=deadline)
    assert done.wait(timeout)
    return box["rows"], box["error"]


class TestPumpDeadlines:
    def test_expired_deadline_fails_fast_without_issuing(self):
        clock = VirtualClock()
        deadline = Deadline(0.0, clock=clock)
        clock.advance(0.001)
        pump = RequestPump()
        issued = []

        def run():
            issued.append(1)
            return []
            yield  # an attempt is a generator, even one that never waits

        try:
            rows, error = _wait_one(pump, _call("k1", run), deadline=deadline)
            assert isinstance(error, QueryDeadlineExceeded)
            assert issued == []  # failed before the network round trip
            assert pump.quiesce(timeout=2.0)
            snapshot = pump.stats.snapshot()
            assert snapshot["failed"] == 1
            assert snapshot["per_destination"]["AV"]["deadline_expired"] == 1
            assert snapshot["queued"] == 0
        finally:
            pump.shutdown()

    def test_deadline_tightens_call_timeout(self):
        # Policy allows 10s per call, but only ~0.15s of budget remains:
        # the hang must be cut off by the deadline, not the policy.
        policy = ResiliencePolicy(retry=None, call_timeout=10.0)
        pump = RequestPump(resilience=policy)

        def hang():
            yield 30

        deadline = Deadline(0.15)
        try:
            started = time.monotonic()
            rows, error = _wait_one(pump, _call("k2", hang), deadline=deadline)
            elapsed = time.monotonic() - started
            assert isinstance(error, QueryDeadlineExceeded)
            assert elapsed < 5.0  # nowhere near the 10s policy timeout
            snapshot = pump.stats.snapshot()
            assert snapshot["per_destination"]["AV"]["deadline_expired"] == 1
            assert snapshot["timeouts"] == 0  # not a policy timeout
        finally:
            pump.shutdown()

    def test_no_policy_pump_still_honors_deadline(self):
        pump = RequestPump()  # resilience=None

        def hang():
            yield 30

        try:
            rows, error = _wait_one(
                pump, _call("k3", hang), deadline=Deadline(0.1)
            )
            assert isinstance(error, QueryDeadlineExceeded)
        finally:
            pump.shutdown()

    def test_expired_deadline_refuses_retries(self):
        from repro.util.errors import TransientWebError

        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=5, base_backoff=0.3),
            call_timeout=10.0,
        )
        pump = RequestPump(resilience=policy)
        attempts = []

        def flaky():
            attempts.append(1)
            raise TransientWebError("boom")
            yield

        try:
            # Budget covers roughly one attempt + part of one backoff:
            # the retry loop must stop rather than sleep past expiry.
            rows, error = _wait_one(
                pump, _call("k4", flaky), deadline=Deadline(0.2)
            )
            assert error is not None
            assert len(attempts) <= 2
        finally:
            pump.shutdown()


@pytest.fixture(scope="module")
def slow_engine():
    # cache=False: these tests need the calls to actually be slow — an
    # env-injected cache (REPRO_CACHE=memory) would let repeated queries
    # complete before their deadline/cancel fires.
    engine = WsqEngine(
        database=load_all(Database()),
        latency=UniformLatency(0.15, 0.25, salt=11),
        cache=False,
    )
    yield engine


WSQ_SQL = (
    "Select Name, Count From States, WebCount "
    "Where Name = T1 Order By Count Desc"
)


class TestEngineDeadlines:
    def test_tight_deadline_aborts_async_query(self, slow_engine):
        with pytest.raises(QueryDeadlineExceeded):
            slow_engine.execute(WSQ_SQL, deadline=Deadline(0.05))
        # The abort drained cleanly: no leaked registrations.
        assert slow_engine.pump.quiesce(timeout=5.0)
        snapshot = slow_engine.pump.stats.snapshot()
        assert snapshot["queued"] == 0

    def test_tight_deadline_aborts_sync_query(self, slow_engine):
        expired = Deadline(0.0)
        time.sleep(0.001)
        with pytest.raises(QueryDeadlineExceeded):
            slow_engine.execute(WSQ_SQL, mode="sync", deadline=expired)

    def test_generous_deadline_matches_undeadlined_run(self, slow_engine):
        bounded = slow_engine.execute(WSQ_SQL, deadline=Deadline(60.0))
        free = slow_engine.execute(WSQ_SQL)
        # sorted(): tied counts land in arrival order, which varies.
        assert sorted(bounded.rows) == sorted(free.rows)

    def test_cancelled_deadline_interrupts_midflight(self, slow_engine):
        deadline = Deadline()  # unbounded: only cancel can stop it
        errors = []

        def run():
            try:
                slow_engine.execute(WSQ_SQL, deadline=deadline)
            except QueryDeadlineExceeded as exc:
                errors.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.1)  # let it get in flight
        deadline.cancel("test disconnect")
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert len(errors) == 1
        assert "test disconnect" in str(errors[0])
        assert slow_engine.pump.quiesce(timeout=5.0)
        assert slow_engine.pump.stats.snapshot()["queued"] == 0


class TestCancelLatency:
    """Both modes wait through one checkpoint, ``AsyncContext.wait_for_any``:
    a cancel stops a query within one poll slice, not when its call lands."""

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_cancel_stops_the_query_within_one_slice(self, mode):
        engine = WsqEngine(
            database=load_all(Database()), latency=FixedLatency(1.0), cache=False
        )
        deadline = Deadline()
        raised = []

        def run():
            try:
                engine.execute(WSQ_SQL, mode=mode, deadline=deadline)
            except QueryDeadlineExceeded:
                raised.append(time.monotonic())

        thread = threading.Thread(target=run)
        try:
            thread.start()
            time.sleep(0.1)  # the first call is out
            cancelled = time.monotonic()
            deadline.cancel("client disconnect")
            thread.join(timeout=10.0)
            assert not thread.is_alive() and len(raised) == 1
            assert raised[0] - cancelled <= 0.25
        finally:
            engine.pump.shutdown()
