"""Property-based stress: ReqSync under adversarial completion schedules.

Hypothesis drives random mixes of call outcomes (delays, row counts
including cancellations and proliferations, multi-call tuples); the
ReqSync output must always equal the straightforward relational
expectation, regardless of completion order, emission mode, or buffering
mode.  This is the strongest correctness net over Sections 4.3/4.4.
"""

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import RequestPump
from repro.asynciter.reqsync import ReqSync
from repro.exec import RowsScan, collect
from repro.relational.placeholder import Placeholder
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.vtables.base import ExternalCall

SCHEMA = Schema(
    [Column("Tag", DataType.STR), Column("A", DataType.INT), Column("B", DataType.INT)],
    allow_duplicates=True,
)

_KEYS = iter(range(10**9))


def make_call(rows, delay):
    async def run(attempt=0):
        if delay:
            await asyncio.sleep(delay)
        return rows

    return ExternalCall(("sched", next(_KEYS)), "AV", run)


class _ScheduledScan(RowsScan):
    """Child emitting one tuple per spec, with 0/1/2 pending calls each.

    spec: (tag, rows_a or None, delay_a, rows_b or None, delay_b)
    """

    def __init__(self, context, specs):
        super().__init__(SCHEMA, [], name="sched")
        self.context = context
        self.specs = specs

    def open(self, bindings=None):
        rows = []
        for tag, rows_a, delay_a, rows_b, delay_b in self.specs:
            a = (
                Placeholder(self.context.register(make_call(rows_a, delay_a)), "v")
                if rows_a is not None
                else -1
            )
            b = (
                Placeholder(self.context.register(make_call(rows_b, delay_b)), "v")
                if rows_b is not None
                else -1
            )
            rows.append((tag, a, b))
        self.rows_data = rows
        RowsScan.open(self, bindings)


def expected_rows(specs):
    """The relational semantics: per tuple, cross-product of call rows."""
    out = []
    for tag, rows_a, _, rows_b, _ in specs:
        a_values = [r["v"] for r in rows_a] if rows_a is not None else [-1]
        b_values = [r["v"] for r in rows_b] if rows_b is not None else [-1]
        for a in a_values:
            for b in b_values:
                out.append((tag, a, b))
    return out


call_result = st.one_of(
    st.none(),  # no call: the column is concrete
    st.lists(
        st.integers(min_value=0, max_value=9), min_size=0, max_size=3
    ).map(lambda vs: [{"v": v} for v in vs]),
)

spec_strategy = st.lists(
    st.tuples(
        st.sampled_from(["t0", "t1", "t2", "t3"]),
        call_result,
        st.sampled_from([0.0, 0.001, 0.01]),
        call_result,
        st.sampled_from([0.0, 0.005]),
    ),
    max_size=8,
).map(lambda specs: [  # tag uniqueness keeps expected rows comparable
    ("{}#{}".format(tag, i), a, da, b, db)
    for i, (tag, a, da, b, db) in enumerate(specs)
])


@pytest.fixture(scope="module")
def pump():
    p = RequestPump()
    yield p
    p.shutdown()


class TestRandomSchedules:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        specs=spec_strategy,
        stream=st.booleans(),
        preserve_order=st.booleans(),
        dedup=st.booleans(),
    )
    def test_output_matches_relational_semantics(
        self, pump, specs, stream, preserve_order, dedup
    ):
        context = AsyncContext(pump, dedup=dedup)
        sync = ReqSync(
            _ScheduledScan(context, specs),
            context,
            stream=stream,
            preserve_order=preserve_order,
            wait_timeout=10,
        )
        rows = collect(sync)
        assert sorted(rows) == sorted(expected_rows(specs))

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(specs=spec_strategy)
    def test_preserve_order_emits_in_child_order(self, pump, specs):
        context = AsyncContext(pump, dedup=False)
        sync = ReqSync(
            _ScheduledScan(context, specs),
            context,
            preserve_order=True,
            wait_timeout=10,
        )
        rows = collect(sync)
        tags = [row[0] for row in rows]
        # Child order: tag blocks appear in spec order (copies adjacent).
        expected_tag_order = [
            spec[0] for spec in specs for _ in range(_fanout(spec))
        ]
        assert tags == [t for t in expected_tag_order if t in set(tags)]

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(specs=spec_strategy)
    def test_counters_account_for_everything(self, pump, specs):
        context = AsyncContext(pump, dedup=False)
        sync = ReqSync(_ScheduledScan(context, specs), context, wait_timeout=10)
        rows = collect(sync)
        incomplete = sum(
            1 for s in specs if s[1] is not None or s[3] is not None
        )
        assert sync.tuples_buffered >= incomplete
        assert sync.max_buffered <= sync.tuples_buffered
        assert len(rows) == len(expected_rows(specs))


def _fanout(spec):
    _, rows_a, _, rows_b, _ = spec
    a = len(rows_a) if rows_a is not None else 1
    b = len(rows_b) if rows_b is not None else 1
    return a * b
