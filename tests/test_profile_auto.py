"""Profiling and auto mode."""

from repro.wsq import WsqEngine

SIGS_KNUTH = (
    "Select Name, Count From Sigs, WebCount Where Name = T1 and T2 = 'Knuth'"
)


def busiest(report):
    """The label of the operator with the largest self(s) in ``render()``."""
    lines = report.render().splitlines()
    rows = lines[2 : 2 + len(report.operator_stats)]
    return max(rows, key=lambda line: float(line.split()[-1]))[:58].strip()


class TestProfile:
    def test_report_shape(self, engine):
        report = engine.profile(SIGS_KNUTH, mode="sync")
        assert len(report.result) == 37
        labels = [s.label for s in report.operator_stats]
        assert any("EVScan" in label for label in labels)
        assert report.result.elapsed >= 0

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
        assert "EVScan" in busiest(report)

    def test_async_hotspot_is_reqsync(self, web, paper_db):
        # Latency high enough that the ReqSync wait dominates local CPU
        # even on a loaded machine (the test is about *where* time goes).
        from repro.web.latency import FixedLatency

        engine = WsqEngine(database=paper_db, web=web, latency=FixedLatency(0.03))
        report = engine.profile(SIGS_KNUTH, mode="async")
        assert "ReqSync" in busiest(report)

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

    def test_run_respects_auto(self, engine):
        result = engine.run("Select Count(*) From States", mode="auto")
        assert result.rows == [(50,)]

