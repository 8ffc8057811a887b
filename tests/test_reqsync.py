"""ReqSync: buffering, patching, cancellation, proliferation, emission order.

These tests drive ReqSync directly with hand-built children and fake
external calls, so every paper behaviour (Sections 4.3/4.4) is pinned
down in isolation from SQL planning.
"""


import pytest

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import RequestPump
from repro.asynciter.reqsync import ReqSync
from repro.exec import RowsScan, collect
from repro.relational.placeholder import Placeholder
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.util.errors import ExecutionError
from repro.vtables.base import ExternalCall


@pytest.fixture()
def pump():
    p = RequestPump()
    yield p
    p.shutdown()


_KEY_COUNTER = iter(range(10**9))


def make_call(rows, delay=0.0, error=None):
    def run(attempt=0):
        if delay:
            yield delay
        if error is not None:
            raise error
        return rows

    # Unique keys so the context's in-flight deduplication never merges
    # two logically distinct test calls.
    return ExternalCall(("test", next(_KEY_COUNTER)), "AV", run)


SCHEMA = Schema(
    [Column("Name", DataType.STR), Column("Value", DataType.INT)],
    allow_duplicates=True,
)


class _GatedScan(RowsScan):
    """A child whose rows embed placeholders registered at open()."""

    def __init__(self, context, specs):
        # specs: list of (name, call_rows, delay) -> one child row each,
        # or (name, None, 0) for an already-complete row.
        super().__init__(SCHEMA, [], name="gated")
        self.context = context
        self.specs = specs

    def open(self, bindings=None):
        rows = []
        for name, call_rows, delay in self.specs:
            if call_rows is None:
                rows.append((name, 0))
            else:
                (call_id,) = self.context.register([make_call(call_rows, delay)])
                rows.append((name, Placeholder(call_id, "value")))
        self.rows_data = rows
        super().open(bindings)


class TestCompletion:
    def test_single_row_fill(self, pump):
        context = AsyncContext(pump)
        child = _GatedScan(context, [("a", [{"value": 7}], 0.0)])
        rows = collect(ReqSync(child, context, wait_timeout=5))
        assert rows == [("a", 7)]

    def test_complete_tuples_pass_through(self, pump):
        context = AsyncContext(pump)
        child = _GatedScan(context, [("done", None, 0)])
        sync = ReqSync(child, context, wait_timeout=5)
        assert collect(sync) == [("done", 0)]
        assert sync.tuples_buffered == 0

    def test_cancellation_on_empty_result(self, pump):
        context = AsyncContext(pump)
        child = _GatedScan(
            context,
            [("kept", [{"value": 1}], 0.0), ("gone", [], 0.0)],
        )
        sync = ReqSync(child, context, wait_timeout=5)
        assert collect(sync) == [("kept", 1)]
        assert sync.tuples_cancelled == 1

    def test_proliferation(self, pump):
        context = AsyncContext(pump)
        child = _GatedScan(
            context, [("multi", [{"value": 1}, {"value": 2}, {"value": 3}], 0.0)]
        )
        sync = ReqSync(child, context, wait_timeout=5)
        rows = collect(sync)
        assert sorted(rows) == [("multi", 1), ("multi", 2), ("multi", 3)]
        assert sync.tuples_proliferated == 2

    def test_completion_order_emission(self, pump):
        context = AsyncContext(pump)
        child = _GatedScan(
            context,
            [("slow", [{"value": 1}], 0.2), ("fast", [{"value": 2}], 0.0)],
        )
        rows = collect(ReqSync(child, context, wait_timeout=5))
        assert rows == [("fast", 2), ("slow", 1)]  # fast emitted first


class TestMultiplePlaceholders:
    def _two_call_child(self, context, rows_a, rows_b, delay_a=0.0, delay_b=0.05):
        """One tuple carrying placeholders for two different calls."""
        schema = Schema(
            [Column("A", DataType.INT), Column("B", DataType.INT)],
            allow_duplicates=True,
        )

        class TwoCalls(RowsScan):
            def open(self, bindings=None):
                (ca,) = context.register([make_call(rows_a, delay_a)])
                (cb,) = context.register([make_call(rows_b, delay_b)])
                self.rows_data = [
                    (Placeholder(ca, "value"), Placeholder(cb, "value"))
                ]
                RowsScan.open(self, bindings)

        return TwoCalls(schema, [], name="two")

    def test_both_calls_patch_one_tuple(self, pump):
        context = AsyncContext(pump)
        child = self._two_call_child(context, [{"value": 1}], [{"value": 2}])
        rows = collect(ReqSync(child, context, wait_timeout=5))
        assert rows == [(1, 2)]

    def test_proliferated_copies_inherit_pending_calls(self, pump):
        # The Section 4.4 nuance: C_A returns 3 rows first, copies carry
        # the C_G placeholder; when C_G lands, all copies are patched.
        context = AsyncContext(pump)
        child = self._two_call_child(
            context,
            [{"value": 1}, {"value": 2}, {"value": 3}],
            [{"value": 9}],
            delay_a=0.0,
            delay_b=0.1,
        )
        rows = collect(ReqSync(child, context, wait_timeout=5))
        assert sorted(rows) == [(1, 9), (2, 9), (3, 9)]

    def test_cancellation_of_multi_call_tuple(self, pump):
        # One call cancels the tuple; the other call's result is dropped.
        context = AsyncContext(pump)
        child = self._two_call_child(context, [], [{"value": 9}])
        sync = ReqSync(child, context, wait_timeout=5)
        assert collect(sync) == []
        assert sync.tuples_cancelled == 1

    def test_proliferation_then_cancellation(self, pump):
        # First call proliferates 2 copies, second call cancels them all.
        context = AsyncContext(pump)
        child = self._two_call_child(
            context, [{"value": 1}, {"value": 2}], [], delay_a=0.0, delay_b=0.1
        )
        assert collect(ReqSync(child, context, wait_timeout=5)) == []


class TestFailureAndLifecycle:
    def test_call_error_propagates(self, pump):
        context = AsyncContext(pump)

        class Failing(RowsScan):
            def open(self, bindings=None):
                (cid,) = context.register([make_call(None, error=RuntimeError("dns"))])
                self.rows_data = [("x", Placeholder(cid, "value"))]
                RowsScan.open(self, bindings)

        sync = ReqSync(Failing(SCHEMA, [], name="f"), context, wait_timeout=5)
        with pytest.raises(ExecutionError, match="dns"):
            collect(sync)

    def test_wait_timeout_guards_hangs(self, pump):
        context = AsyncContext(pump)
        child = _GatedScan(context, [("slow", [{"value": 1}], 5.0)])
        sync = ReqSync(child, context, wait_timeout=0.05)
        with pytest.raises(ExecutionError, match="timed out"):
            collect(sync)

    def test_next_before_open(self, pump):
        context = AsyncContext(pump)
        sync = ReqSync(_GatedScan(context, []), context)
        with pytest.raises(ExecutionError):
            sync.next()

    def test_close_mid_stream_cancels(self, pump):
        context = AsyncContext(pump)
        child = _GatedScan(
            context, [("r{}".format(i), [{"value": i}], 0.5) for i in range(5)]
        )
        sync = ReqSync(child, context, wait_timeout=5)
        sync.open()
        sync.close()  # without consuming: should not raise or hang

    def test_reopen_resets_state(self, pump):
        context = AsyncContext(pump)
        child = _GatedScan(context, [("a", [{"value": 1}], 0.0)])
        sync = ReqSync(child, context, wait_timeout=5)
        assert collect(sync) == [("a", 1)]
        assert collect(sync) == [("a", 1)]
        assert sync.tuples_buffered == 2  # counters accumulate across opens
