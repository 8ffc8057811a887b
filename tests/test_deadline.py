"""End-to-end deadlines: the Deadline object and its one checkpoint.

The deadline is threaded service → engine → AsyncContext and checked in
one place below the service: the query thread's wait
(``AsyncContext.wait_for_any``, in either mode), which raises
``QueryDeadlineExceeded`` within one poll slice; the query then cancels
its calls.  The request pump reads no deadline, so a request several
queries share answers to none of their budgets.  These tests pin the
object, the checkpoint in both modes, how fast a cancel stops a query,
and that one waiter's deadline never fails another waiter's call.
"""

import math
import threading
import time

import pytest

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import RequestPump
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

    def test_bounded_remaining_counts_down(self):
        clock = VirtualClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(0.4)
        assert deadline.remaining() == pytest.approx(0.6)
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


class TestSharedFlight:
    """Under single-flight two queries share one request: the tighter
    query's deadline ends its own wait and nothing else."""

    def test_a_waiters_deadline_never_fails_another_waiter(self):
        pump = RequestPump(single_flight=True)

        def slow(attempt=0):
            yield 0.3
            return [{"count": 7}]

        tight = AsyncContext(pump, deadline=Deadline(0.1))
        free = AsyncContext(pump)
        try:
            (tight_id,) = tight.register([ExternalCall("shared", "AV", slow)])
            (free_id,) = free.register([ExternalCall("shared", "AV", slow)])
            with pytest.raises(QueryDeadlineExceeded):
                tight.wait_for_any((tight_id,), timeout=5.0)
            tight.cancel([tight_id])
            assert free.wait_for_any((free_id,), timeout=5.0) == {free_id}
            assert free.error_of(free_id) is None
            assert free.take_result(free_id) == [{"count": 7}]
            assert pump.quiesce(timeout=2.0)
            snapshot = pump.stats.snapshot()
        finally:
            pump.shutdown()
        keys = ("registered", "coalesced", "completed", "cancelled", "failed")
        assert [snapshot[key] for key in keys] == [2, 1, 1, 1, 0]


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


def _assert_drained(pump):
    """The abort cancelled what it left: every call settled once, none out."""
    assert pump.quiesce(timeout=5.0)
    snapshot = pump.stats.snapshot()
    settled = snapshot["completed"] + snapshot["failed"] + snapshot["cancelled"]
    assert snapshot["registered"] == settled
    assert (snapshot["in_flight"], snapshot["queued"]) == (0, 0)


class TestEngineDeadlines:
    def test_tight_deadline_aborts_async_query(self, slow_engine):
        with pytest.raises(QueryDeadlineExceeded):
            slow_engine.execute(WSQ_SQL, deadline=Deadline(0.05))
        _assert_drained(slow_engine.pump)

    def test_tight_deadline_aborts_sync_query(self, slow_engine):
        expired = Deadline(0.0)
        time.sleep(0.001)
        with pytest.raises(QueryDeadlineExceeded):
            slow_engine.execute(WSQ_SQL, mode="sync", deadline=expired)
        _assert_drained(slow_engine.pump)

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
