"""The benchmark harness library (fast, zero-latency runs)."""

import pytest

from repro.bench.placement import build_figure7_plan, measure_figure7
from repro.bench.table1 import PAPER_TABLE1, Table1Row, format_table1, run_table1
from repro.bench.workloads import (
    CALLS_PER_QUERY,
    bench_engine,
    template_queries,
)


@pytest.fixture()
def fast_engine(web, paper_db):
    from repro.wsq import WsqEngine

    # cache=False: these tests count raw network calls, which the
    # REPRO_CACHE transparency leg would legitimately change.
    return WsqEngine(database=paper_db, web=web, cache=False)


class TestWorkloads:
    def test_template_instantiation_distinct_constants(self):
        queries = template_queries(1, instances=8, run=1)
        assert len(queries) == 8
        assert len(set(queries)) == 8

    def test_runs_use_different_constants(self):
        run1 = template_queries(1, instances=8, run=1)
        run2 = template_queries(1, instances=8, run=2)
        assert set(run1) != set(run2)

    def test_template2_v1_differs_from_v2(self):
        for sql in template_queries(2, instances=8):
            # Extract the two constants; they must differ (paper: V1 != V2).
            constants = [part.split("'")[0] for part in sql.split("'")[1::2]]
            assert constants[0] != constants[1]

    def test_invalid_template(self):
        with pytest.raises(ValueError):
            template_queries(9)

    @pytest.mark.parametrize("template", [1, 2, 3])
    def test_templates_execute_and_count_calls(self, template, fast_engine):
        sql = template_queries(template, instances=1)[0]
        before = sum(c.requests_sent for c in fast_engine.clients.values())
        fast_engine.execute(sql, mode="async")
        issued = sum(c.requests_sent for c in fast_engine.clients.values()) - before
        assert issued == CALLS_PER_QUERY[template]


class TestTable1:
    def test_quick_run_shapes(self):
        rows = run_table1(instances=2, runs=1, latency=(0.002, 0.004))
        assert len(rows) == 3  # one per template
        assert [(row.template, row.run, row.queries) for row in rows] == [
            (1, 1, 2), (2, 1, 2), (3, 1, 2)
        ]
        for row in rows:
            assert row.sync_seconds > 0
            assert row.async_seconds > 0
        # The headline claim (async wins by > 4x) is a wall-clock floor:
        # benchmarks/test_table1.py asserts it on the paper's full layout.

    def test_format_includes_paper_comparison(self):
        rows = [Table1Row(1, 1, 8, 1.0, 0.1)]
        rendered = format_table1(rows, paper=PAPER_TABLE1)
        assert "Template 1" in rendered
        assert "10.0x" in rendered
        assert "(paper)" in rendered
        assert "6.0x" in rendered

    def test_improvement_property(self):
        assert Table1Row(1, 1, 8, 2.0, 0.5).improvement == 4.0
        assert Table1Row(1, 1, 8, 2.0, 0.0).improvement == float("inf")


class TestFigure7Placement:
    def test_variants_same_rows(self):
        engine = bench_engine(latency=None)
        _, rows_a, _ = measure_figure7(engine, "a", r_size=4)
        engine_b = bench_engine(latency=None)
        _, rows_b, _ = measure_figure7(engine_b, "b", r_size=4)
        assert sorted(rows_a) == sorted(rows_b)
        assert len(rows_a) == 37 * 4

    def test_patch_work_reduction_matches_paper(self):
        """7(b) patches |Sigs| * (|R|-1) fewer attribute values than 7(a)."""
        r_size = 6
        engine = bench_engine(latency=None)
        _, _, patched_a = measure_figure7(engine, "a", r_size)
        engine_b = bench_engine(latency=None)
        _, _, patched_b = measure_figure7(engine_b, "b", r_size)
        assert patched_a - patched_b == 37 * (r_size - 1)

    def test_unknown_variant(self):
        engine = bench_engine(latency=None)
        with pytest.raises(ValueError):
            build_figure7_plan(engine, "c", 2)
