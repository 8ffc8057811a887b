"""Profiling (``explain(form="analyze")``: per-operator actuals and external
deltas) and auto mode."""

from repro.wsq import WsqEngine

SIGS_KNUTH = (
    "Select Name, Count From Sigs, WebCount Where Name = T1 and T2 = 'Knuth'"
)
TOP_STATES = (
    "Select S.Name, C.Count From States S, WebCount C Where S.Name = C.T1 "
    "Order By C.Count Desc Limit 3"
)


def analyze(engine, sql, mode):
    return engine.explain(sql, mode=mode, form="analyze")


def operator_rows(text):
    """``(label, rows, self seconds)`` per line of the operator table."""
    lines = text.splitlines()
    end = next(i for i, line in enumerate(lines) if line.startswith("external: "))
    return [
        (line[:58].strip(), int(line.split()[-4]), float(line.split()[-1]))
        for line in lines[2:end]
    ]


def external(text):
    """The ``external:`` line as ``{key: number}``."""
    (line,) = [line for line in text.splitlines() if line.startswith("external: ")]
    pairs = (item.split("=") for item in line[len("external: "):].split(", "))
    return {key: float(value) for key, value in pairs}


def busiest(text):
    """The label of the operator with the largest self(s)."""
    return max(operator_rows(text), key=lambda row: row[2])[0]


class TestProfile:
    def test_report_shape(self, engine):
        text = analyze(engine, SIGS_KNUTH, "sync")
        assert text.splitlines()[0].startswith("analyze: sync mode, 37 rows in ")
        assert any("EVScan" in label for label, _, _ in operator_rows(text))
        assert float(text.splitlines()[0].split()[-1].rstrip("s")) >= 0

    def test_rows_counted_per_operator(self, engine):
        rows = operator_rows(analyze(engine, SIGS_KNUTH, "sync"))
        assert next(n for label, n, _ in rows if label.startswith("Scan")) == 37

    def test_async_profile_has_reqsync(self, engine):
        text = analyze(engine, SIGS_KNUTH, "async")
        assert any("ReqSync" in label for label, _, _ in operator_rows(text))
        assert external(text)["calls_registered"] == 37

    def test_latency_shows_in_evscan_self_time(self, web, paper_db):
        from repro.web.latency import FixedLatency

        engine = WsqEngine(database=paper_db, web=web, latency=FixedLatency(0.004))
        assert "EVScan" in busiest(analyze(engine, SIGS_KNUTH, "sync"))

    def test_async_hotspot_is_reqsync(self, web, paper_db):
        # Latency high enough that the ReqSync wait dominates local CPU
        # even on a loaded machine (the test is about *where* time goes).
        from repro.web.latency import FixedLatency

        engine = WsqEngine(database=paper_db, web=web, latency=FixedLatency(0.03))
        assert "ReqSync" in busiest(analyze(engine, SIGS_KNUTH, "async"))

    def test_render_contains_totals(self, engine):
        text = analyze(engine, SIGS_KNUTH, "async")
        assert "37 rows" in text
        assert "cum(s)" in text
        assert "external:" in text

    def test_profiled_results_match_execute(self, engine):
        direct = engine.execute(SIGS_KNUTH, mode="sync").rows
        header = analyze(engine, SIGS_KNUTH, "sync").splitlines()[0]
        assert " {} rows in ".format(len(direct)) in header

    def test_dedup_visible_in_deltas(self, web, paper_db):
        engine = WsqEngine(database=paper_db, web=web)
        # Two identical WebCount references over the same binding column
        # produce duplicate calls that dedup collapses.
        sql = (
            "Select A.Count, B.Count From Sigs, WebCount A, WebCount B "
            "Where Name = A.T1 and Name = B.T1"
        )
        deltas = external(analyze(engine, sql, "async"))
        assert deltas["dedup_hits"] == 37
        assert deltas["calls_registered"] == 37

    def test_calls_are_counted_whatever_the_root(self, engine):
        # The context's counts come from the plan's real scans and
        # ReqSync, found under a Limit/Sort root and in a sync plan alike.
        assert external(analyze(engine, TOP_STATES, "async"))["calls_registered"] == 50
        assert external(analyze(engine, SIGS_KNUTH, "sync"))["calls_registered"] == 37


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

