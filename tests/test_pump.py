"""The request pump: concurrency, limits, queueing, failures."""

import sys
import threading
import time

import pytest

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import PumpLimits, RequestPump
from repro.util.errors import ExecutionError
from repro.vtables.base import ExternalCall


def make_call(key="k", destination="AV", delay=0.0, rows=None, error=None):
    rows = rows if rows is not None else [{"count": 1}]

    def run(attempt=0):
        if delay:
            yield delay
        if error is not None:
            raise error
        return rows

    return ExternalCall(key, destination, run)


@pytest.fixture()
def pump():
    p = RequestPump()
    yield p
    p.shutdown()


class TestBasics:
    def test_register_and_complete(self, pump):
        done = threading.Event()
        payload = {}

        def on_complete(call_id, rows, error):
            payload["result"] = (call_id, rows, error)
            done.set()

        (call_id,) = pump.register([make_call()], on_complete)
        assert pump.wait(done.is_set, 2)
        assert payload["result"] == (call_id, [{"count": 1}], None)

    def test_call_ids_unique(self, pump):
        seen = set()
        done = threading.Event()

        def on_complete(call_id, rows, error):
            if len(seen) == 10:
                done.set()

        for _ in range(10):
            seen.add(pump.register([make_call()], on_complete)[0])
        assert len(seen) == 10

    def test_error_reported(self, pump):
        done = threading.Event()
        payload = {}

        def on_complete(call_id, rows, error):
            payload["error"] = error
            done.set()

        pump.register([make_call(error=ValueError("network down"))], on_complete)
        assert pump.wait(done.is_set, 2)
        assert isinstance(payload["error"], ValueError)
        assert pump.quiesce(timeout=2.0)
        assert pump.stats.snapshot()["failed"] == 1

    def test_pump_restarts_after_shutdown(self):
        pump = RequestPump()
        started = threading.Event()
        pump.register([make_call(key="before", delay=0.2)], lambda *a: None)
        pump.register([make_call(key="probe")], lambda *a: started.set())
        assert pump.wait(started.is_set, 2)
        pump.shutdown()
        done = threading.Event()
        pump.register([make_call()], lambda *a: done.set())
        assert pump.wait(done.is_set, 2)
        pump.shutdown()


class TestConcurrency:
    def test_calls_run_concurrently(self, pump):
        count = 20
        done = threading.Event()
        remaining = [count]
        lock = threading.Lock()

        def on_complete(call_id, rows, error):
            with lock:
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.set()

        started = time.perf_counter()
        for i in range(count):
            pump.register([make_call(key=i, delay=0.05)], on_complete)
        assert pump.wait(done.is_set, 3)
        elapsed = time.perf_counter() - started
        # Concurrent: ~0.05s, not 20 * 0.05 = 1s.
        assert elapsed < 0.5
        assert pump.stats.snapshot()["max_in_flight"] > 1

    def test_global_limit_respected(self):
        pump = RequestPump(limits=PumpLimits(max_total=2))
        try:
            done = threading.Event()
            remaining = [6]
            lock = threading.Lock()

            def on_complete(call_id, rows, error):
                with lock:
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        done.set()

            for i in range(6):
                pump.register([make_call(key=i, delay=0.03)], on_complete)
            assert pump.wait(done.is_set, 3)
            assert pump.stats.snapshot()["max_in_flight"] <= 2
        finally:
            pump.shutdown()

    def test_per_destination_limit(self):
        pump = RequestPump(
            limits=PumpLimits(per_destination={"AV": 1}, destination_default=None)
        )
        try:
            done = threading.Event()
            remaining = [4]
            lock = threading.Lock()

            def on_complete(call_id, rows, error):
                with lock:
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        done.set()

            started = time.perf_counter()
            for i in range(4):
                pump.register([make_call(key=i, destination="AV", delay=0.03)], on_complete)
            assert pump.wait(done.is_set, 3)
            # Serialized by the destination cap: ~4 * 0.03s.
            assert time.perf_counter() - started >= 0.1
        finally:
            pump.shutdown()

    def test_limit_for(self):
        limits = PumpLimits(per_destination={"AV": 3}, destination_default=7)
        assert limits.limit_for("AV") == 3
        assert limits.limit_for("Google") == 7


class TestAsyncContext:
    def test_wait_and_take(self, pump):
        context = AsyncContext(pump)
        (call_id,) = context.register([make_call(rows=[{"count": 42}])])
        done = context.wait_for_any({call_id}, timeout=2)
        assert done == {call_id}
        assert context.take_result(call_id) == [{"count": 42}]
        # Results are popped.
        with pytest.raises(ExecutionError, match="not available"):
            context.take_result(call_id)

    def test_wait_timeout(self, pump):
        context = AsyncContext(pump)
        with pytest.raises(ExecutionError, match="timed out"):
            context.wait_for_any({999999}, timeout=0.05)

    def test_error_raised_at_take(self, pump):
        context = AsyncContext(pump)
        (call_id,) = context.register([make_call(error=RuntimeError("boom"))])
        context.wait_for_any({call_id}, timeout=2)
        with pytest.raises(ExecutionError, match="boom"):
            context.take_result(call_id)

    def test_completed_subset(self, pump):
        context = AsyncContext(pump)
        (fast,) = context.register([make_call(key="fast")])
        (slow,) = context.register([make_call(key="slow", delay=0.2)])
        context.wait_for_any({fast}, timeout=2)
        assert fast in context.completed({fast, slow})

    def test_wait_returns_multiple_when_ready(self, pump):
        context = AsyncContext(pump)
        ids = {context.register([make_call(key=i)])[0] for i in range(5)}
        assert context.wait_for_any(ids, timeout=2) == ids


class TestInFlightDedup:
    """[CDY95]-style call minimization inside one query context."""

    def _slow_call(self, rows, key):
        def run(attempt=0):
            yield 0.05
            return rows

        return ExternalCall(key, "AV", run)

    def test_identical_calls_share_one_id(self, pump):
        context = AsyncContext(pump, dedup=True)
        (first,) = context.register([self._slow_call([{"count": 1}], key="same")])
        (second,) = context.register([self._slow_call([{"count": 1}], key="same")])
        assert first == second
        assert context.dedup_hits == 1
        assert context.calls_registered == 1

    def test_distinct_keys_not_merged(self, pump):
        context = AsyncContext(pump, dedup=True)
        (a,) = context.register([self._slow_call([{"count": 1}], key="a")])
        (b,) = context.register([self._slow_call([{"count": 2}], key="b")])
        assert a != b

    def test_dedup_disabled(self, pump):
        context = AsyncContext(pump, dedup=False)
        (a,) = context.register([self._slow_call([{"count": 1}], key="same")])
        (b,) = context.register([self._slow_call([{"count": 1}], key="same")])
        assert a != b

    def test_each_lease_can_take_the_result(self, pump):
        context = AsyncContext(pump, dedup=True)
        (first,) = context.register([self._slow_call([{"count": 9}], key="k")])
        context.register([self._slow_call([{"count": 9}], key="k")])
        context.wait_for_any({first}, timeout=2)
        assert context.take_result(first) == [{"count": 9}]
        # Second lease still valid.
        assert context.take_result(first) == [{"count": 9}]
        # Now fully consumed.
        with pytest.raises(ExecutionError, match="not available"):
            context.take_result(first)

    def test_consumed_key_reissues(self, pump):
        context = AsyncContext(pump, dedup=True)
        (first,) = context.register([self._slow_call([{"count": 1}], key="k")])
        context.wait_for_any({first}, timeout=2)
        context.take_result(first)
        (second,) = context.register([self._slow_call([{"count": 1}], key="k")])
        assert second != first  # no stale reuse after full consumption

    def test_none_key_never_deduped(self, pump):
        context = AsyncContext(pump, dedup=True)
        (a,) = context.register([self._slow_call([{"count": 1}], key=None)])
        (b,) = context.register([self._slow_call([{"count": 1}], key=None)])
        assert a != b

    def test_dedup_cuts_network_requests_in_figure7_plan(self, web):
        """Figure 7: |R| identical Google calls per Sig collapse to one."""
        from repro.bench.placement import build_figure7_plan
        from repro.bench.workloads import bench_engine
        from repro.exec import collect

        for dedup, registered in ((False, 37 + 37 * 4), (True, 37 + 37)):
            # cache=False: this asserts raw *network* counts, which the
            # REPRO_CACHE transparency leg would legitimately change.
            engine = bench_engine(latency=None, cache=False)
            plan, _ = build_figure7_plan(engine, "a", r_size=4, dedup=dedup)
            before = sum(c.requests_sent for c in engine.clients.values())
            rows = collect(plan)
            issued = sum(c.requests_sent for c in engine.clients.values()) - before
            assert len(rows) == 37 * 4
            assert engine.pump.quiesce(timeout=2.0)
            snapshot = engine.pump.stats.snapshot()
            # Without the query's dedup every call reaches the pump, whose
            # single-flight still joins each one that finds its twin in
            # flight; with it the pump sees each distinct call once.
            assert snapshot["registered"] == registered
            assert issued == registered - snapshot["coalesced"]
            assert issued >= 37 + 37
            if dedup:
                assert snapshot["coalesced"] == 0


class TestQueuedGauge:
    def test_queued_calls_reported(self):
        pump = RequestPump(limits=PumpLimits(max_total=1))
        try:
            done = threading.Event()
            remaining = [5]
            lock = threading.Lock()

            def on_complete(call_id, rows, error):
                with lock:
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        done.set()

            for i in range(5):
                pump.register([make_call(key=("q", i), delay=0.05)], on_complete)
            snapshot = pump.stats.snapshot()  # first call in flight, rest queued
            assert snapshot["queued"] >= 1
            assert pump.wait(done.is_set, 3)
            assert pump.stats.snapshot()["queued"] == 0
        finally:
            pump.shutdown()

    def test_coalesced_waiters_are_not_queued(self):
        """Three same-key calls on an unlimited single-flight pump share
        one request that is out: nothing waits for a slot."""
        pump = RequestPump(single_flight=True)
        try:
            for _ in range(3):
                pump.register([make_call(key="same", delay=0.3)], lambda *outcome: None)
            snapshot = pump.stats.snapshot()
            assert (snapshot["registered"], snapshot["coalesced"]) == (3, 2)
            assert (snapshot["in_flight"], snapshot["queued"]) == (1, 0)
            assert pump.quiesce(timeout=2.0)
        finally:
            pump.shutdown()

    def test_a_queued_flight_counts_each_of_its_waiters(self):
        pump = RequestPump(limits=PumpLimits(max_total=1), single_flight=True)
        try:
            pump.register([make_call(key="first", delay=0.05)], lambda *outcome: None)
            for _ in range(3):
                pump.register([make_call(key="second", delay=0.05)], lambda *outcome: None)
            snapshot = pump.stats.snapshot()
            assert (snapshot["in_flight"], snapshot["queued"], snapshot["coalesced"]) == (1, 3, 2)
            assert pump.quiesce(timeout=2.0)
            assert pump.stats.snapshot()["queued"] == 0
        finally:
            pump.shutdown()


class TestQuiesce:
    def test_quiesce_covers_the_settlement_accounting(self):
        """``quiesce()`` returning means histograms and the closing trace
        event of every call are recorded — not merely that results were
        delivered (the settlement callback runs after ``on_complete``)."""
        from repro.obs.trace import CALL_COMPLETE, Tracer

        class SlowTracer(Tracer):
            def emit(self, name, *args, **kwargs):
                if name == CALL_COMPLETE:
                    time.sleep(0.05)  # widen the window after on_complete
                return super().emit(name, *args, **kwargs)

        tracer = SlowTracer()
        pump = RequestPump(tracer=tracer)
        try:
            delivered = threading.Event()
            pump.register([make_call()], lambda *outcome: delivered.set())
            assert pump.wait(delivered.is_set, 2)
            assert pump.quiesce(timeout=2.0)
            assert len(tracer.events(name=CALL_COMPLETE)) == 1
            histogram = pump.metrics.histogram(
                "request.e2e_seconds", destination="AV"
            )
            assert histogram.count == 1
        finally:
            pump.shutdown()

    def test_quiesce_on_an_idle_pump_does_not_wait(self, pump):
        assert pump.quiesce(timeout=0)
        done = threading.Event()
        pump.register([make_call()], lambda *outcome: done.set())
        assert pump.wait(done.is_set, 2)
        assert pump.quiesce(timeout=2.0)
        assert pump.quiesce(timeout=0)

    def test_accounting_is_exact_after_a_settled_burst(self, pump):
        count = 12
        settled = threading.Event()
        seen = []

        def on_complete(call_id, rows, error):
            seen.append(call_id)
            if len(seen) == count:
                settled.set()

        for i in range(count):
            call = make_call(
                key=("burst", i),
                delay=0.001 * (i % 4),
                error=ValueError("boom") if i % 3 == 0 else None,
            )
            pump.register([call], on_complete)
        assert pump.wait(settled.is_set, 5)
        assert pump.quiesce(timeout=2.0)
        assert pump.quiesce(timeout=0)
        snapshot = pump.stats.snapshot()
        assert (snapshot["registered"], snapshot["completed"], snapshot["failed"]) == (
            count,
            8,
            4,
        )
        assert (snapshot["cancelled"], snapshot["queued"], snapshot["in_flight"]) == (0, 0, 0)
        histogram = pump.metrics.histogram("request.e2e_seconds", destination="AV")
        assert histogram.count == count


class TestRegisterCancelStress:
    def test_concurrent_registers_and_cancels_settle_exactly_once(self):
        """More registering threads than cores, a short switch interval:
        every call is completed or cancelled exactly once, nothing is
        left in flight or queued, and the pump still holds no record."""
        pump = RequestPump(limits=PumpLimits(max_total=3), single_flight=True)
        threads, per_thread = 6, 30
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:

            def worker(n):
                for i in range(per_thread):
                    call = make_call(key=("stress", i % 7), delay=0.001 * (i % 3))
                    (call_id,) = pump.register([call], lambda *outcome: None)
                    if (n + i) % 3 == 0:
                        pump.cancel(call_id)

            workers = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in workers)
            assert pump.quiesce(timeout=10)
        finally:
            sys.setswitchinterval(old_interval)
            pump.shutdown()
        snapshot = pump.stats.snapshot()
        settled = snapshot["completed"] + snapshot["failed"] + snapshot["cancelled"]
        assert snapshot["registered"] == settled == threads * per_thread
        assert snapshot["cancelled"] > 0 and snapshot["failed"] == 0
        assert (snapshot["queued"], snapshot["in_flight"]) == (0, 0)
        assert snapshot["max_in_flight"] <= 3
        assert pump._calls == {} and pump._flights == {}


class TestManyWaiters:
    def test_a_follower_takes_over_when_the_driver_leaves(self, pump):
        """A driver that leaves (here its own wait times out, with nothing
        settling) hands the role to the waiter that followed it, which
        then drives its own call instead of sleeping out its timeout."""
        done = threading.Event()
        pump.register([make_call(key="late", delay=0.3)], lambda *outcome: done.set())
        driving = threading.Event()

        def never():
            driving.set()  # under the pump lock: this waiter takes the role
            return False

        driver = threading.Thread(target=pump.wait, args=(never, 0.1))
        driver.start()
        try:
            assert driving.wait(5)
            started = time.monotonic()
            assert pump.wait(done.is_set, 5)
            assert time.monotonic() - started < 1.0
        finally:
            driver.join(timeout=5)
        assert not driver.is_alive()

    def test_waiters_take_turns_driving_and_each_gets_its_calls(self):
        """More waiting threads than cores, a short switch interval: the
        driver role passes from waiter to waiter, every call waited for
        reaches its own waiter with its own rows, every call settles
        once, and the pump ends with nothing tabled or live."""
        pump = RequestPump(limits=PumpLimits(max_total=4), single_flight=True)
        threads, per_thread = 6, 20
        results = {}
        lock = threading.Lock()
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:

            def worker(n):
                for i in range(per_thread):
                    done, box = threading.Event(), []

                    def on_complete(call_id, rows, error, box=box, done=done):
                        box.append(rows)
                        done.set()

                    call = make_call(key=("w", i), delay=0.001 * (i % 3), rows=[{"count": i}])
                    (call_id,) = pump.register([call], on_complete)
                    if (n + i) % 4 == 0:
                        pump.cancel(call_id)
                    elif pump.wait(done.is_set, 10):
                        with lock:
                            results[n, i] = box[0]

            workers = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in workers)
            assert pump.quiesce(timeout=10)
        finally:
            sys.setswitchinterval(old_interval)
            pump.shutdown()
        assert results == {
            (n, i): [{"count": i}]
            for n in range(threads)
            for i in range(per_thread)
            if (n + i) % 4
        }
        snapshot = pump.stats.snapshot()
        settled = snapshot["completed"] + snapshot["failed"] + snapshot["cancelled"]
        assert snapshot["registered"] == settled == threads * per_thread
        assert snapshot["failed"] == 0 and snapshot["max_in_flight"] <= 4
        assert (snapshot["queued"], snapshot["in_flight"]) == (0, 0)
        assert pump._calls == {} and pump._flights == {} and pump._live == {}


class TestBurstIssue:
    def test_an_async_burst_is_issued_before_register_returns(self, pump):
        """The registering thread issues the burst itself, so its waits
        start at registration, not when the registrant next blocks."""
        calls = [make_call(key=("burst", i), delay=0.2) for i in range(5)]
        pump.register(calls, lambda *outcome: None)
        snapshot = pump.stats.snapshot()
        assert (snapshot["in_flight"], snapshot["queued"]) == (5, 0)
        latencies = pump.latencies()
        assert "queue_wait" not in latencies.get("AV", {})  # nothing settled yet
        pump.register([make_call(key="single", delay=0.2)], lambda *outcome: None)
        assert pump.stats.snapshot()["in_flight"] == 6


class TestQueueWait:
    """The queue wait is the time a call waited for a slot: from asking
    for one to its issue, not from the registration of its burst."""

    def _run_burst(self, limits, issue):
        """Two calls in one burst, each taking *issue* seconds of the
        registering thread to go out and then 0.25 s in flight; returns
        their trace records and the pump's queue-wait summary."""
        from repro.obs.analysis import request_table
        from repro.obs.trace import Tracer
        from repro.util.timing import VirtualClock

        clock = VirtualClock()

        def serviced(key):
            def run(attempt=0):
                clock.advance(issue)
                yield 0.0
                clock.advance(0.25)
                return [{"count": 1}]

            return ExternalCall(key, "AV", run)

        pump = RequestPump(limits=limits, tracer=Tracer(clock=clock))
        try:
            ids = pump.register([serviced("first"), serviced("second")], lambda *o: None)
            assert pump.quiesce(timeout=5)
            summary = pump.latencies()["AV"]["queue_wait"]
            table = request_table(pump.tracer.events())
        finally:
            pump.shutdown()
        return [table[call_id] for call_id in ids], summary

    def test_an_unlimited_burst_waits_for_no_slot(self):
        # Issuing the first call took 0.01 s; the second still got its
        # slot the moment it asked.
        records, summary = self._run_burst(PumpLimits(), issue=0.01)
        assert [record.queue_wait for record in records] == [0.0, 0.0]
        assert (summary["count"], summary["max"]) == (2, 0.0)
        # It went out 0.01 s after its burst was registered, and its
        # end-to-end time still counts from the registration.
        assert (records[1].registered_at, records[1].enqueued_at) == (0.0, pytest.approx(0.01))
        assert records[1].e2e == pytest.approx(records[1].settled_at)

    def test_a_queued_call_waits_out_the_call_ahead_of_it(self):
        (first, second), summary = self._run_burst(PumpLimits(max_total=1), issue=0.0)
        assert first.queue_wait == 0.0
        assert second.queue_wait == pytest.approx(first.service) == pytest.approx(0.25)
        assert summary["count"] == 2
        assert (summary["min"], summary["max"]) == (0.0, pytest.approx(0.25))


class TestQueuedCallsThatEndAtOnce:
    """A long run of queued calls that each end as soon as they are issued
    must settle one after another, not by recursing once per call."""

    QUEUED = 2000

    @pytest.mark.parametrize("reason", ["open_breaker"])
    def test_every_queued_call_settles(self, reason):
        from repro.asynciter.resilience import CircuitBreakerConfig, ResiliencePolicy
        from repro.util.errors import BreakerOpenError
        from repro.util.timing import VirtualClock

        # The slow call's failure opens the breaker for the rest.
        resilience = ResiliencePolicy(breaker=CircuitBreakerConfig(failure_threshold=1))
        slow = make_call(key="slow", delay=0.4, error=ValueError("down"))
        # The breaker stays open: the pump's clock, which it runs on, never moves.
        pump = RequestPump(
            limits=PumpLimits(max_total=1), resilience=resilience, clock=VirtualClock()
        )
        errors = []
        try:
            pump.register([slow], lambda *outcome: None)
            calls = [make_call(key=("queued", i)) for i in range(self.QUEUED)]
            pump.register(calls, lambda _id, rows, error: errors.append(error))
            assert pump.quiesce(timeout=10)
            snapshot = pump.stats.snapshot()
        finally:
            pump.shutdown()
        assert len(errors) == self.QUEUED
        assert all(isinstance(error, BreakerOpenError) for error in errors)
        settled = snapshot["completed"] + snapshot["failed"] + snapshot["cancelled"]
        assert snapshot["registered"] == settled == self.QUEUED + 1
        assert (snapshot["queued"], snapshot["in_flight"]) == (0, 0)


class TestHandlerFailure:
    def test_a_raising_handler_strands_nothing(self):
        """A heap entry that raises past the pump's own error handling
        ends its flight with that error and propagates out of the wait
        that ran it; another call's entry stays on the heap, and the
        next wait drives it to completion."""

        class Escaped(BaseException):
            pass

        def run(attempt=0):
            yield 0.01
            raise Escaped()

        pump = RequestPump()
        completions = []
        bystander = threading.Event()
        try:
            pump.register([ExternalCall("boom", "AV", run)], lambda *o: completions.append(o))
            pump.register([make_call(key="bystander", delay=0.2)], lambda *o: bystander.set())
            with pytest.raises(Escaped):
                pump.quiesce(timeout=2)
            ((_, rows, error),) = completions
            assert rows is None and isinstance(error, Escaped)
            assert not bystander.is_set()
            assert pump.wait(bystander.is_set, 2)
            assert pump.quiesce(timeout=2)
            snapshot = pump.stats.snapshot()
            assert (snapshot["completed"], snapshot["failed"], snapshot["cancelled"]) == (1, 1, 0)
            assert (snapshot["in_flight"], snapshot["queued"]) == (0, 0)
        finally:
            pump.shutdown()
