"""The request pump: concurrency, limits, queueing, failures."""

import asyncio
import threading
import time

import pytest

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import PumpLimits, RequestPump, default_pump
from repro.util.errors import ExecutionError
from repro.vtables.base import ExternalCall


def make_call(key="k", destination="AV", delay=0.0, rows=None, error=None):
    rows = rows if rows is not None else [{"count": 1}]

    async def run(attempt=0):
        if delay:
            await asyncio.sleep(delay)
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

        call_id = pump.register(make_call(), on_complete)
        assert done.wait(2)
        assert payload["result"] == (call_id, [{"count": 1}], None)

    def test_call_ids_unique(self, pump):
        seen = set()
        done = threading.Event()

        def on_complete(call_id, rows, error):
            if len(seen) == 10:
                done.set()

        for _ in range(10):
            seen.add(pump.register(make_call(), on_complete))
        assert len(seen) == 10

    def test_error_reported(self, pump):
        done = threading.Event()
        payload = {}

        def on_complete(call_id, rows, error):
            payload["error"] = error
            done.set()

        pump.register(make_call(error=ValueError("network down")), on_complete)
        assert done.wait(2)
        assert isinstance(payload["error"], ValueError)
        time.sleep(0.05)
        assert pump.stats.snapshot()["failed"] == 1

    def test_pump_restarts_after_shutdown(self):
        pump = RequestPump()
        pump.ensure_started()
        pump.shutdown()
        done = threading.Event()
        pump.register(make_call(), lambda *a: done.set())
        assert done.wait(2)
        pump.shutdown()

    def test_default_pump_is_singleton(self):
        assert default_pump() is default_pump()


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
            pump.register(make_call(key=i, delay=0.05), on_complete)
        assert done.wait(3)
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
                pump.register(make_call(key=i, delay=0.03), on_complete)
            assert done.wait(3)
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
                pump.register(make_call(key=i, destination="AV", delay=0.03), on_complete)
            assert done.wait(3)
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
        call_id = context.register(make_call(rows=[{"count": 42}]))
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
        call_id = context.register(make_call(error=RuntimeError("boom")))
        context.wait_for_any({call_id}, timeout=2)
        with pytest.raises(ExecutionError, match="boom"):
            context.take_result(call_id)

    def test_completed_subset(self, pump):
        context = AsyncContext(pump)
        fast = context.register(make_call(key="fast"))
        slow = context.register(make_call(key="slow", delay=0.2))
        context.wait_for_any({fast}, timeout=2)
        assert fast in context.completed({fast, slow})

    def test_wait_returns_multiple_when_ready(self, pump):
        context = AsyncContext(pump)
        ids = {context.register(make_call(key=i)) for i in range(5)}
        time.sleep(0.1)
        assert context.wait_for_any(ids, timeout=2) == ids


class TestInFlightDedup:
    """[CDY95]-style call minimization inside one query context."""

    def _slow_call(self, rows, key):
        async def run(attempt=0):
            await asyncio.sleep(0.05)
            return rows

        return ExternalCall(key, "AV", run)

    def test_identical_calls_share_one_id(self, pump):
        context = AsyncContext(pump, dedup=True)
        first = context.register(self._slow_call([{"count": 1}], key="same"))
        second = context.register(self._slow_call([{"count": 1}], key="same"))
        assert first == second
        assert context.dedup_hits == 1
        assert context.calls_registered == 1

    def test_distinct_keys_not_merged(self, pump):
        context = AsyncContext(pump, dedup=True)
        a = context.register(self._slow_call([{"count": 1}], key="a"))
        b = context.register(self._slow_call([{"count": 2}], key="b"))
        assert a != b

    def test_dedup_disabled(self, pump):
        context = AsyncContext(pump, dedup=False)
        a = context.register(self._slow_call([{"count": 1}], key="same"))
        b = context.register(self._slow_call([{"count": 1}], key="same"))
        assert a != b

    def test_each_lease_can_take_the_result(self, pump):
        context = AsyncContext(pump, dedup=True)
        first = context.register(self._slow_call([{"count": 9}], key="k"))
        context.register(self._slow_call([{"count": 9}], key="k"))
        context.wait_for_any({first}, timeout=2)
        assert context.take_result(first) == [{"count": 9}]
        # Second lease still valid.
        assert context.take_result(first) == [{"count": 9}]
        # Now fully consumed.
        with pytest.raises(ExecutionError, match="not available"):
            context.take_result(first)

    def test_consumed_key_reissues(self, pump):
        context = AsyncContext(pump, dedup=True)
        first = context.register(self._slow_call([{"count": 1}], key="k"))
        context.wait_for_any({first}, timeout=2)
        context.take_result(first)
        second = context.register(self._slow_call([{"count": 1}], key="k"))
        assert second != first  # no stale reuse after full consumption

    def test_none_key_never_deduped(self, pump):
        context = AsyncContext(pump, dedup=True)
        a = context.register(self._slow_call([{"count": 1}], key=None))
        b = context.register(self._slow_call([{"count": 1}], key=None))
        assert a != b

    def test_dedup_cuts_network_requests_in_figure7_plan(self, web):
        """Figure 7: |R| identical Google calls per Sig collapse to one."""
        from repro.bench.placement import build_figure7_plan
        from repro.bench.workloads import bench_engine
        from repro.exec import collect

        for dedup, expected in ((False, 37 + 37 * 4), (True, 37 + 37)):
            # cache=False, shards=1: this asserts raw *network* counts,
            # which the REPRO_CACHE / REPRO_SHARDS transparency legs
            # would legitimately change.
            engine = bench_engine(latency=None, cache=False, shards=1)
            plan, _ = build_figure7_plan(engine, "a", r_size=4, dedup=dedup)
            before = sum(c.requests_sent for c in engine.clients.values())
            rows = collect(plan)
            issued = sum(c.requests_sent for c in engine.clients.values()) - before
            assert len(rows) == 37 * 4
            assert issued == expected


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
                pump.register(make_call(key=("q", i), delay=0.05), on_complete)
            time.sleep(0.06)  # first call in flight, rest queued
            snapshot = pump.stats.snapshot()
            assert snapshot["queued"] >= 1
            assert done.wait(3)
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
            pump.register(make_call(), lambda *outcome: delivered.set())
            assert delivered.wait(2)
            assert pump.quiesce(timeout=2.0)
            assert len(tracer.events(name=CALL_COMPLETE)) == 1
            histogram = pump.metrics.histogram(
                "request.e2e_seconds", destination="AV"
            )
            assert histogram.count == 1
        finally:
            pump.shutdown()
