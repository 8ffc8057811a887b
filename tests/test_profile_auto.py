"""Profiling, auto mode, and cost-based reordering."""

from repro.config import EngineConfig
from repro.plan.cost import CostModel
from repro.plan.planner import Planner
from repro.sql.parser import parse_select
from repro.wsq import WsqEngine

SIGS_KNUTH = (
    "Select Name, Count From Sigs, WebCount Where Name = T1 and T2 = 'Knuth'"
)


class TestProfile:
    def test_report_shape(self, engine):
        report = engine.profile(SIGS_KNUTH, mode="sync")
        assert len(report.result) == 37
        labels = [s.label for s in report.operator_stats]
        assert any("EVScan" in label for label in labels)
        assert report.total_seconds >= 0

    def test_rows_counted_per_operator(self, engine):
        report = engine.profile(SIGS_KNUTH, mode="sync")
        by_label = {s.label: s for s in report.operator_stats}
        scan = next(s for label, s in by_label.items() if label.startswith("Scan"))
        assert scan.rows == 37

    def test_async_profile_has_reqsync(self, engine):
        report = engine.profile(SIGS_KNUTH, mode="async")
        assert any("ReqSync" in s.label for s in report.operator_stats)
        assert report.engine_deltas["calls_registered"] == 37

    def test_latency_shows_in_evscan_self_time(self, web, paper_db):
        from repro.web.latency import FixedLatency

        engine = WsqEngine(database=paper_db, web=web, latency=FixedLatency(0.004))
        report = engine.profile(SIGS_KNUTH, mode="sync")
        hottest = report.hottest()
        assert "EVScan" in hottest.label

    def test_async_hotspot_is_reqsync(self, web, paper_db):
        # Latency high enough that the ReqSync wait dominates local CPU
        # even on a loaded machine (the test is about *where* time goes).
        from repro.web.latency import FixedLatency

        engine = WsqEngine(database=paper_db, web=web, latency=FixedLatency(0.03))
        report = engine.profile(SIGS_KNUTH, mode="async")
        assert "ReqSync" in report.hottest().label

    def test_render_contains_totals(self, engine):
        text = engine.profile(SIGS_KNUTH, mode="async").render()
        assert "37 rows" in text
        assert "cum(s)" in text
        assert "external:" in text

    def test_profiled_results_match_execute(self, engine):
        direct = engine.execute(SIGS_KNUTH, mode="sync").rows
        profiled = engine.profile(SIGS_KNUTH, mode="sync").result.rows
        assert profiled == direct

    def test_dedup_visible_in_deltas(self, web, paper_db):
        engine = WsqEngine(database=paper_db, web=web)
        # Two identical WebCount references over the same binding column
        # produce duplicate calls that dedup collapses.
        sql = (
            "Select A.Count, B.Count From Sigs, WebCount A, WebCount B "
            "Where Name = A.T1 and Name = B.T1"
        )
        report = engine.profile(sql, mode="async")
        assert report.engine_deltas["dedup_hits"] == 37
        assert report.engine_deltas["calls_registered"] == 37


class TestAutoMode:
    def test_local_query_stays_sync(self, engine):
        plan = engine.plan("Select Name From States", mode="auto")
        assert "ReqSync" not in plan.explain()

    def test_web_query_goes_async(self, engine):
        plan = engine.plan(SIGS_KNUTH, mode="auto")
        assert "ReqSync" in plan.explain()

    def test_execute_auto(self, engine):
        result = engine.execute(SIGS_KNUTH, mode="auto")
        assert len(result) == 37

    def test_cost_model_arbitration(self, web, paper_db):
        engine = WsqEngine(
            database=paper_db, web=web, cost_model=CostModel(latency_mean=0.01)
        )
        assert "ReqSync" in engine.plan(SIGS_KNUTH, mode="auto").explain()

    def test_run_respects_auto(self, engine):
        result = engine.run("Select Count(*) From States", mode="auto")
        assert result.rows == [(50,)]


class TestCostReorder:
    def test_smaller_table_becomes_outer(self, engine):
        options = EngineConfig.resolve(reorder=True, cost_reorder=True)
        planner = Planner(engine.database, engine.vtables, options=options)
        # CSFields (12 rows) should end up outer of States (50 rows).
        plan = planner.plan(
            parse_select("Select * From States, CSFields")
        )
        explain = plan.explain()
        lines = explain.splitlines()
        scans = [line.strip() for line in lines if "Scan:" in line]
        assert scans[0].endswith("CSFields")

    def test_vtables_still_follow_providers(self, engine):
        options = EngineConfig.resolve(reorder=True, cost_reorder=True)
        planner = Planner(engine.database, engine.vtables, options=options)
        plan = planner.plan(
            parse_select(
                "Select * From WebCount, States, Sigs Where States.Name = T1"
            )
        )
        from repro.exec import DependentJoin

        def find(op):
            if isinstance(op, DependentJoin):
                return op
            for child in op.children:
                found = find(child)
                if found is not None:
                    return found
            return None

        dj = find(plan)
        assert dj is not None  # WebCount placed after its provider

    def test_results_unchanged_by_reorder(self, engine):
        options = EngineConfig.resolve(reorder=True, cost_reorder=True)
        planner = Planner(engine.database, engine.vtables, options=options)
        from repro.exec import collect

        sql = (
            "Select States.Name, Sigs.Name From States, Sigs "
            "Where Population > 15000"
        )
        reordered = collect(planner.plan(parse_select(sql)))
        baseline = engine.execute(sql, mode="sync").rows
        assert sorted(reordered) == sorted(baseline)
