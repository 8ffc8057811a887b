"""The cost model: selectivities, wave accounting, mode predictions."""

import inspect
import time

import pytest

from repro.asynciter.pump import PumpLimits, RequestPump
from repro.bench.workloads import bench_engine, template_queries
from repro.datasets import load_all
from repro.exec import Filter
from repro.plan.cost import (
    CostModel,
    EQUALITY_SELECTIVITY,
    PlanEstimate,
    RANGE_SELECTIVITY,
    choose_figure7_variant,
    predicate_selectivity,
)
from repro.relational.expr import (
    ColumnRef,
    Comparison,
    Conjunction,
    Disjunction,
    LikePredicate,
    Literal,
    Negation,
)
from repro.relational.types import DataType
from repro.storage import Database
from repro.wsq import WsqEngine

MEAN_LATENCY = 0.006  # midpoint of the bench band (0.003, 0.009)


def _ops(plan):
    yield plan
    for child in plan.children:
        yield from _ops(child)


@pytest.fixture()
def model():
    return CostModel(latency_mean=MEAN_LATENCY)


class TestSelectivity:
    def test_equality(self):
        expr = Comparison("=", ColumnRef(0), Literal(1))
        assert predicate_selectivity(expr) == EQUALITY_SELECTIVITY

    def test_range(self):
        expr = Comparison("<", ColumnRef(0), Literal(1))
        assert predicate_selectivity(expr) == RANGE_SELECTIVITY

    def test_constant_true_false(self):
        assert predicate_selectivity(Comparison("=", Literal(1), Literal(1))) == 1.0
        assert predicate_selectivity(Comparison("=", Literal(1), Literal(2))) == 0.0

    def test_conjunction_multiplies(self):
        eq = Comparison("=", ColumnRef(0), Literal(1))
        assert predicate_selectivity(Conjunction([eq, eq])) == pytest.approx(
            EQUALITY_SELECTIVITY**2
        )

    def test_disjunction_unions(self):
        eq = Comparison("=", ColumnRef(0), Literal(1))
        expected = 1 - (1 - EQUALITY_SELECTIVITY) ** 2
        assert predicate_selectivity(Disjunction([eq, eq])) == pytest.approx(expected)

    def test_negation_complements(self):
        eq = Comparison("=", ColumnRef(0), Literal(1))
        assert predicate_selectivity(Negation(eq)) == pytest.approx(
            1 - EQUALITY_SELECTIVITY
        )

    def test_like(self):
        expr = LikePredicate(ColumnRef(0), "New%")
        assert 0 < predicate_selectivity(expr) < 1


class TestStructuralEstimates:
    def test_sync_plan_waves_equal_calls(self, model, engine):
        plan = engine.plan(
            "Select Name, Count From States, WebCount Where Name = T1", mode="sync"
        )
        estimate = model.estimate(plan)
        assert estimate.calls == {"AV": 50.0}
        assert estimate.waves == 50.0

    def test_async_plan_single_wave(self, model, engine):
        plan = engine.plan(
            "Select Name, Count From States, WebCount Where Name = T1", mode="async"
        )
        estimate = model.estimate(plan)
        assert estimate.waves == 1.0
        assert estimate.issued == 50.0
        assert estimate.calls == {}

    def test_two_engine_async_still_one_wave(self, model, engine):
        plan = engine.plan(
            "Select * From Sigs, WebPages_AV AV, WebPages_Google G "
            "Where Name = AV.T1 and Name = G.T1 and AV.Rank <= 3 and G.Rank <= 3",
            mode="async",
        )
        estimate = model.estimate(plan)
        assert estimate.waves == 1.0
        assert estimate.issued == pytest.approx(37 + 37 * 2.4, rel=0.2)

    def test_concurrency_limit_widens_wave(self, engine):
        limited = CostModel(
            latency_mean=MEAN_LATENCY, limits=PumpLimits(max_total=10)
        )
        plan = engine.plan(
            "Select Name, Count From States, WebCount Where Name = T1", mode="async"
        )
        assert limited.estimate(plan).waves == 5.0  # ceil(50/10)

    def test_per_destination_cap_widens_only_its_wave(self, engine):
        plan = engine.plan(
            "Select Name, Count From States, WebCount Where Name = T1", mode="async"
        )
        capped = CostModel(MEAN_LATENCY, limits=PumpLimits(per_destination={"AV": 8}))
        other = CostModel(MEAN_LATENCY, limits=PumpLimits(per_destination={"G": 8}))
        assert capped.estimate(plan).waves == 7.0  # ceil(50/8)
        assert other.estimate(plan).waves == 1.0

    def test_engine_model_reads_its_pump_limits(self, web):
        # Table-1 template 1 over 50 states, on a pump that keeps at most
        # four calls in flight: the one ReqSync waits ceil(50/4) waves.
        pump = RequestPump(limits=PumpLimits(max_total=4))
        try:
            engine = WsqEngine(database=load_all(Database()), web=web, pump=pump)
            text = engine.explain(template_queries(1, instances=1)[0], form="costs")
        finally:
            pump.shutdown()
        reqsync = [line for line in text.splitlines() if "ReqSync" in line]
        assert reqsync and all("waves~13.0" in line for line in reqsync)

    def test_equijoin_is_priced_as_the_hash_join_it_runs(self):
        db = Database()
        for name in ("A", "B"):
            db.create_table_from_rows(
                name, [("Id", DataType.INT), ("V", DataType.INT)], [(i, i) for i in range(200)]
            )
        plan = WsqEngine(database=db).plan(
            "Select A.V From A, B Where A.Id = B.Id", mode="sync"
        )
        assert "Join" in plan.explain()
        # One build and one probe pass, not the 200 x 200 pair scan.
        assert CostModel(latency_mean=0.05).estimate(plan).local_rows < 200 * 200

    def test_in_probe_is_priced_as_one_hash_probe_per_row(self):
        # IN probes its subquery's hash set: doubling the subquery's table
        # adds the subquery's own work to the filter, not rows x that work.
        model = CostModel(latency_mean=0.05)

        def priced(sub_rows):
            db = Database()
            db.create_table_from_rows(
                "T", [("K", DataType.INT)], [(i,) for i in range(100)]
            )
            db.create_table_from_rows(
                "Sub", [("K", DataType.INT)], [(i,) for i in range(sub_rows)]
            )
            plan = WsqEngine(database=db).plan(
                "Select K From T Where K In (Select K From Sub)", mode="sync"
            )
            (selection,) = [op for op in _ops(plan) if isinstance(op, Filter)]
            subplan = selection.predicate.subplan
            return model.estimate(selection).local_rows, model.estimate(subplan).local_rows

        base, base_subquery = priced(200)
        grown, grown_subquery = priced(400)
        assert grown_subquery > base_subquery
        assert grown - base == pytest.approx(grown_subquery - base_subquery)

    def test_the_model_takes_only_what_the_engine_gives_it(self):
        assert list(inspect.signature(CostModel).parameters) == [
            "latency_mean", "cache", "limits",
        ]

    def test_webcount_fanout_one(self, model, engine):
        plan = engine.plan(
            "Select Name, Count From Sigs, WebCount Where Name = T1", mode="sync"
        )
        assert model.estimate(plan).rows == pytest.approx(37.0)

    def test_index_scan_cheaper_than_table_scan(self, model, paper_db, web):
        engine = WsqEngine(database=paper_db, web=web)
        sql = "Select Population From States Where Name = 'Utah'"
        scanned = engine.plan(sql, mode="sync")
        paper_db.create_index("States", "Name")
        indexed = engine.plan(sql, mode="sync")
        assert "IndexScan" in indexed.explain()
        assert "IndexScan" not in scanned.explain()
        assert model.seconds(indexed) < model.seconds(scanned)


class TestPredictionsAgainstMeasurement:
    """Loose end-to-end sanity: predictions within ~4x of reality, and the
    predicted sync/async *ordering* always correct."""

    @pytest.mark.parametrize("template", [1, 2])
    def test_sync_prediction_close(self, model, template):
        engine = bench_engine()
        sql = template_queries(template, instances=1)[0]
        predicted = model.seconds(engine.plan(sql, mode="sync"))
        start = time.perf_counter()
        engine.execute(sql, "sync")
        measured = time.perf_counter() - start
        assert predicted == pytest.approx(measured, rel=2.0)

    @pytest.mark.parametrize("template", [1, 2, 3])
    def test_async_predicted_faster(self, model, template):
        engine = bench_engine()
        sql = template_queries(template, instances=1)[0]
        sync_prediction = model.seconds(engine.plan(sql, mode="sync"))
        async_prediction = model.seconds(engine.plan(sql, mode="async"))
        assert async_prediction < sync_prediction / 4

    def test_explain_renders(self, model, engine):
        plan = engine.plan(
            "Select Name, Count From Sigs, WebCount Where Name = T1", mode="async"
        )
        text = model.explain(plan)
        assert "waves~1.0" in text
        assert "external-calls~37" in text

    def test_annotated_explain_is_plan_explain_plus_cost_column(self, model, engine):
        """The cost view is the unified Operator.explain renderer with the
        model's per-operator annotation — same tree, bracketed extras."""
        plan = engine.plan(
            "Select Name, Count From Sigs, WebCount Where Name = T1", mode="async"
        )
        plain = plan.explain().splitlines()
        annotated = model.annotated_explain(plan).splitlines()
        assert len(annotated) == len(plain)
        for bare, costed in zip(plain, annotated):
            assert costed.startswith(bare)
            assert "[rows~" in costed
        # Scans carry no wave column; ReqSync lines do.
        reqsync_lines = [l for l in annotated if "ReqSync" in l]
        assert reqsync_lines and all("waves~" in l for l in reqsync_lines)


class TestFigure7Choice:
    def test_high_latency_prefers_single_reqsync(self):
        slow = CostModel(latency_mean=1.0)
        variant, _, _ = choose_figure7_variant(slow, 37, 8)
        assert variant == "a"

    def test_cheap_network_huge_r_prefers_split(self):
        fast = CostModel(latency_mean=0.0005)
        variant, _, _ = choose_figure7_variant(fast, 37, 200)
        assert variant == "b"

    def test_returns_both_predictions(self):
        model = CostModel(latency_mean=0.01)
        variant, time_a, time_b = choose_figure7_variant(model, 37, 8)
        assert time_a > 0 and time_b > 0
        assert variant in ("a", "b")


class TestPlanEstimate:
    def test_merge_calls(self):
        a = PlanEstimate(calls={"AV": 2.0})
        b = PlanEstimate(calls={"AV": 1.0, "Google": 3.0})
        assert a.merged_calls(b) == {"AV": 3.0, "Google": 3.0}

    def test_repr_compact(self):
        assert "rows~" not in repr(PlanEstimate())  # repr uses rows= format
        assert "rows=0" in repr(PlanEstimate())
