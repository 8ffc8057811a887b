"""A cache hit is a row, not a placeholder (DESIGN.md §5, §11.3).

``AEVScan.open_batch`` returns one group of rows per binding: the
complete rows of a call the pump answered inside ``register`` (zero, one
or n of them), else the one placeholder row of a call that went to the
network.  ``DependentJoin`` joins each outer row with its own group.
A failed call is never inlined: it stays a placeholder for ReqSync's
``on_error``.
"""

import pytest

from repro.asynciter.aevscan import AEVScan
from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import RequestPump
from repro.asynciter.reqsync import ReqSync
from repro.bench.workloads import CALLS_PER_QUERY, template_queries
from repro.exec import DependentJoin, RowsScan, collect_batches, set_batch_size
from repro.obs import Observability
from repro.obs.trace import CALL_REGISTER
from repro.relational.placeholder import Placeholder
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.util.errors import ExecutionError
from repro.vtables.base import ExternalCall
from repro.vtables.evscan import EVScan, ExternalScan
from repro.web.cache import ResultCache
from repro.wsq import WsqEngine

OUTER = Schema([Column("Name", DataType.STR)], allow_duplicates=True)
INNER = Schema(
    [Column("T1", DataType.STR), Column("Value", DataType.INT)], allow_duplicates=True
)


class GroupScan(ExternalScan):
    """An inner side that answers each binding with a fixed group of rows:
    ``open_batch`` returns the groups (and stages them, like a scan)."""

    def __init__(self, groups):
        self.groups = groups
        self.schema = INNER
        self.children = ()
        self._rows = None
        self._position = 0
        self.bound = []  # the T1 values of each open_batch, in order

    def _group(self, bindings):
        return tuple((bindings["T1"], value) for value in self.groups[bindings["T1"]])

    def open(self, bindings=None):
        self._stage(list(self._group(bindings)))

    def open_batch(self, bindings_list):
        self.bound.append([bindings["T1"] for bindings in bindings_list])
        groups = tuple(map(self._group, bindings_list))
        self._stage([row for group in groups for row in group])
        return groups


class LoopedScan(GroupScan):
    """The same scan without batched parameterization: the dependent
    join's per-outer-row loop, the tuple-at-a-time reference."""

    open_batch = None


def dependent_join(scan, names):
    return DependentJoin(RowsScan(OUTER, [(n,) for n in names], name="outer"), scan, {"T1": 0})


def drain(plan, batch_size):
    """Every batch of *plan*, checking the 1..max_rows contract."""
    set_batch_size(plan, batch_size)
    plan.open()
    try:
        batches = []
        batch = plan.next_batch(batch_size)
        while batch is not None:
            assert 1 <= len(batch) <= batch_size
            batches.append(batch.to_rows())
            batch = plan.next_batch(batch_size)
    finally:
        plan.close()
    return [row for rows in batches for row in rows]


class TestDependentJoinTakesEachBindingsRows:
    GROUPS = {"a": [1], "b": [], "c": [2, 3, 4], "d": [5], "e": [], "f": [6, 7, 8]}

    @pytest.mark.parametrize("batch_size", [1, 2, 4, 256])
    def test_groups_of_zero_one_and_three_rows_keep_outer_order(self, batch_size):
        names = sorted(self.GROUPS)
        expected = [(n, n, v) for n in names for v in self.GROUPS[n]]
        reference = dependent_join(LoopedScan(self.GROUPS), names)
        assert drain(reference, 1) == expected
        scan = GroupScan(self.GROUPS)
        assert drain(dependent_join(scan, names), batch_size) == expected
        # Bound batch-wise: one open_batch per outer batch, in outer order.
        assert [n for bound in scan.bound for n in bound] == names
        assert max(map(len, scan.bound)) == min(batch_size, len(names))

    def test_an_outer_batch_of_empty_groups_is_followed_by_the_next(self):
        groups = {"a": [], "b": [], "c": [9], "d": []}
        scan = GroupScan(groups)
        assert drain(dependent_join(scan, sorted(groups)), 2) == [("c", "c", 9)]
        assert scan.bound == [["a", "b"], ["c", "d"]]

    def test_a_missing_group_is_an_error(self):
        class ShortScan(GroupScan):
            def open_batch(self, bindings_list):
                return super().open_batch(bindings_list)[1:]

        plan = dependent_join(ShortScan({"a": [1], "b": [2]}), ["a", "b"])
        with pytest.raises(ExecutionError, match="expected 2 inner groups, got 1"):
            drain(plan, 2)


class ProbedInstance:
    """A virtual table whose calls carry a probe: ``answers[t1]`` is the
    rows of a hit, an exception (a replayed failure), or ``None`` (a
    miss that goes out, waits 0 s and returns ``RESULTS[t1]``)."""

    RESULTS = {"hit": [{"value": 1}], "miss": [{"value": 2}], "fails": [{"value": 3}]}

    def __init__(self, answers):
        self.answers = answers
        self.schema = INNER
        self.result_fields = {"Value": "value"}

    def resolve_bindings(self, join_bindings):
        return dict(join_bindings or {})

    def make_call(self, bindings):
        t1 = bindings["T1"]

        def run(attempt=0):
            yield 0.0
            return self.RESULTS[t1]

        def probe():
            answer = self.answers[t1]
            if isinstance(answer, Exception):
                raise answer
            return answer

        return ExternalCall(("probed", t1), "AV", run, probe)

    def placeholder_row(self, bindings, call_id):
        return (bindings["T1"], Placeholder(call_id, "value"))

    def complete_rows(self, bindings, result_rows):
        return [(bindings["T1"], row["value"]) for row in result_rows]

    def describe(self):
        return "Probed"


ANSWERS = {"hit": [{"value": 1}], "miss": None, "fails": RuntimeError("replayed failure")}


@pytest.fixture()
def pump():
    p = RequestPump()
    yield p
    p.shutdown()


class TestAEVScanGroups:
    def test_a_hit_is_rows_a_miss_or_a_failure_a_placeholder(self, pump):
        context = AsyncContext(pump)
        scan = AEVScan(ProbedInstance(dict(ANSWERS, empty=[])), context)
        hit, miss, fails, empty = scan.open_batch(
            [{"T1": t} for t in ("hit", "miss", "fails", "empty")]
        )
        assert hit == [("hit", 1)] and empty == []
        for (placeholder_row,), t1 in ((miss, "miss"), (fails, "fails")):
            assert placeholder_row[0] == t1 and isinstance(placeholder_row[1], Placeholder)
        assert context.error_of(fails[0][1].call_id) is not None
        context.cancel([miss[0][1].call_id])

    @pytest.mark.parametrize(
        "on_error, rows, degraded",
        [
            ("drop", [("hit", "hit", 1), ("miss", "miss", 2)], {"tuples_dropped_on_error": 1}),
            (
                "null",
                [("fails", "fails", None), ("hit", "hit", 1), ("miss", "miss", 2)],
                {"values_nulled_on_error": 1},
            ),
        ],
    )
    def test_a_replayed_failure_degrades_under_on_error(self, pump, on_error, rows, degraded):
        names = sorted(ANSWERS)
        context = AsyncContext(pump)
        join = dependent_join(AEVScan(ProbedInstance(ANSWERS), context), names)
        sync = ReqSync(join, context, wait_timeout=5, on_error=on_error)
        assert sorted(collect_batches(sync, 256)) == rows
        assert sync.call_errors == 1
        for counter, value in degraded.items():
            assert getattr(sync, counter) == value
        # The failed call and the miss were buffered; the hit was not.
        assert sync.tuples_buffered == 2
        # The sequential plan degrades the same way.
        evscan = EVScan(ProbedInstance(ANSWERS), AsyncContext(pump), on_error=on_error)
        assert sorted(collect_batches(dependent_join(evscan, names), 256)) == rows


def _reqsyncs(plan):
    stack, found = [plan], []
    while stack:
        operator = stack.pop()
        if isinstance(operator, ReqSync):
            found.append(operator)
        stack.extend(operator.children)
    return found


class TestThroughTheEngine:
    def test_a_warm_template3_skips_google_after_an_empty_altavista_hit(self, web, paper_db):
        sql = template_queries(3, instances=1)[0]
        cold = WsqEngine(database=paper_db, web=web, cache=False)
        try:
            sync_rows = cold.execute(sql, mode="sync").rows
            v1 = sql.split("AV.T2 = '")[1].split("'")[0]
            with_av_rows = cold.execute(
                "Select Distinct Name From Sigs, WebPages_AV AV Where Name = AV.T1 and "
                "AV.Rank <= 3 and AV.T2 = '{}'".format(v1)
            ).rows
            (sigs,) = cold.execute("Select Count(*) From Sigs").rows[0]
        finally:
            cold.pump.shutdown()
        assert len(with_av_rows) < sigs  # some Sig's AltaVista hit has zero rows
        engine = WsqEngine(
            database=paper_db, web=web, cache=ResultCache(), obs=Observability.enabled()
        )
        try:
            engine.execute(sql, mode="async")
            assert engine.pump.quiesce()
            before = engine.pump.stats.snapshot()["registered"]
            mark = len(engine.tracer)
            warm = engine.execute(sql, mode="async").rows
            registered = engine.pump.stats.snapshot()["registered"] - before
            google = [
                e for e in engine.tracer.events()[mark:]
                if e.name == CALL_REGISTER and e.destination == "Google"
            ]
        finally:
            engine.pump.shutdown()
        assert sorted(warm) == sorted(sync_rows)
        # One AltaVista call per Sig, and Google calls only for a Sig
        # whose AltaVista rows were there to join (cold: 74).  One such
        # Sig binds its Google call once per AltaVista row: in one burst
        # the context dedups them, one row at a time it cannot.
        keys = {e.args["key"] for e in google}
        assert len(keys) == len(with_av_rows)
        assert all(any('"{}"'.format(n) in key for (n,) in with_av_rows) for key in keys)
        assert registered == sigs + len(google) < CALLS_PER_QUERY[3]

    def test_a_zero_latency_miss_is_still_a_placeholder(self, web, paper_db):
        engine = WsqEngine(database=paper_db, web=web, cache=False)
        try:
            plan = engine.plan(template_queries(1, instances=1)[0], mode="async")
            rows = collect_batches(plan, engine.config.batch_size)
        finally:
            engine.pump.shutdown()
        assert len(rows) == CALLS_PER_QUERY[1]
        (sync,) = _reqsyncs(plan)
        assert sync.tuples_buffered == CALLS_PER_QUERY[1]
