"""Batch size sweep: local pipeline throughput and call overlap.

Two workloads, swept over the batch-granularity knob:

- a **join-heavy local** pipeline (scan -> filter -> nested-loop join)
  measured in input rows per second — compiled column-at-a-time kernels
  over typed array columns, selection-vector filters, and the hash
  equi-join upgrade;
- the **WebCount-heavy** Table-1-style query (37 identically shaped
  searches) measured end-to-end with the trace-derived overlap factor —
  batching registration must never *reduce* the overlap the paper's
  speedups rest on.

Every sweep point also re-checks correctness (every size must reproduce
the expected rows exactly), and the summary asserts the default batch
size beats the degenerate batch=1 (tuple-at-a-time) schedule by >= 5x
on the local micro-benchmark.  Results land in
``benchmarks/results/batch_sweep.txt``.
"""

import gc
from statistics import mean

import pytest

from conftest import results_path, timed
from repro.bench.workloads import bench_engine
from repro.exec import (
    Filter,
    NestedLoopJoin,
    RowsScan,
    collect_batches,
    set_batch_size,
)
from repro.obs import Observability, overlap_factor
from repro.obs.trace import CALL_REGISTER, SYNC_WAIT
from repro.relational.batch import DEFAULT_BATCH_SIZE
from repro.relational.expr import ColumnRef, Comparison, Literal
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType

BATCH_SIZES = [1, 4, 16, 64, 256]

# -- workload 1: join-heavy local pipeline -----------------------------------

OUTER_N = 12000
SELECTIVITY_CUTOFF = OUTER_N // 10  # filter keeps 10% of the scan
INNER_VALUES = list(range(50, 58))  # 8 join partners, all below the cutoff


def _int_scan(name, values):
    schema = Schema([Column("v", DataType.INT, name)])
    return RowsScan(schema, [(v,) for v in values], name=name)


def _local_plan():
    """scan(12k) -> filter(10%) -> join(8-row inner)."""
    filtered = Filter(
        _int_scan("outer", range(OUTER_N)),
        Comparison("<", ColumnRef(0), Literal(SELECTIVITY_CUTOFF)),
    )
    return NestedLoopJoin(
        filtered,
        _int_scan("inner", INNER_VALUES),
        Comparison("=", ColumnRef(0), ColumnRef(1)),
    )


EXPECTED_LOCAL = sorted((v, v) for v in INNER_VALUES)

# -- workload 2: WebCount-heavy (Table-1 template) ---------------------------

SQL = "Select Name, Count From Sigs, WebCount Where Name = T1 and T2 = 'Knuth'"
CALLS = 37

_LOCAL = {}  # batch_size -> input rows/sec
_WEB = {}  # batch_size -> (seconds, overlap)


@pytest.mark.parametrize(
    "batch_size", BATCH_SIZES, ids=lambda b: "batch={}".format(b)
)
def test_local_pipeline_sweep(benchmark, batch_size):
    def run():
        plan = set_batch_size(_local_plan(), batch_size)
        return collect_batches(plan, batch_size)

    run, seconds = timed(run)
    rows = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sorted(rows) == EXPECTED_LOCAL  # correctness at every size
    _LOCAL[batch_size] = OUTER_N / mean(seconds)
    benchmark.extra_info["input_rows_per_sec"] = round(_LOCAL[batch_size])


@pytest.mark.parametrize(
    "batch_size", BATCH_SIZES, ids=lambda b: "batch={}".format(b)
)
def test_webcount_sweep(benchmark, batch_size, warm_web):
    def run():
        obs = Observability.enabled()
        engine = bench_engine(obs=obs, batch_size=batch_size)
        try:
            # A full collection of the test process's heap (~100 ms) can
            # land inside the registration burst and let early calls
            # complete before the last ones register: keep the collector
            # out of the measured window.
            gc.disable()
            try:
                result = engine.execute(SQL, mode="async")
            finally:
                gc.enable()
            engine.pump.quiesce(timeout=5.0)
            events = obs.tracer.events()
            register_idx = [
                i for i, e in enumerate(events) if e.name == CALL_REGISTER
            ]
            wait_idx = [i for i, e in enumerate(events) if e.name == SYNC_WAIT]
            frontier_first = bool(register_idx) and (
                not wait_idx or max(register_idx) < min(wait_idx)
            )
            return overlap_factor(events), frontier_first, result
        finally:
            engine.pump.shutdown()

    run, seconds = timed(run)
    overlap, frontier_first, result = benchmark.pedantic(
        run, rounds=2, iterations=1
    )
    assert len(result) == CALLS
    # Batched registration must not cost concurrency: the full-buffering
    # ReqSync registers every call before waiting at *any* granularity
    # — asserted structurally from the trace order, which is exact.
    assert frontier_first
    if batch_size > 1:
        # With the frontier registered in a handful of pulls, every call
        # is in flight at once: the burst takes well under the ~3 ms
        # minimum simulated latency, so the peak holds unless something
        # stalls the query thread mid-burst (the collector, kept out
        # above).  At batch=1 the 37 per-row registrations race that
        # latency, so the peak (recorded above as structure) would
        # flake — the degenerate schedule keeps the structural
        # guarantee only.
        assert overlap == CALLS
        _WEB[batch_size] = (mean(seconds), overlap)
    else:
        _WEB[batch_size] = (mean(seconds), None)
    benchmark.extra_info["overlap_factor"] = overlap


def test_batch_sweep_summary(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _LOCAL or not _WEB:
        pytest.skip("no sweep measurements collected")
    lines = [
        "batch size sweep ({} input rows local; {} calls web)".format(
            OUTER_N, CALLS
        ),
        "{:<12}{:>18}{:>14}{:>10}".format(
            "batch_size", "local rows/s", "web s", "overlap"
        ),
    ]
    for batch_size in BATCH_SIZES:
        web = _WEB.get(batch_size)
        lines.append(
            "{:<12}{:>18}{:>14}{:>10}".format(
                batch_size,
                round(_LOCAL.get(batch_size, 0)) or "-",
                "{:.4f}".format(web[0]) if web else "-",
                web[1] if web and web[1] is not None else "-",
            )
        )
    default = min(DEFAULT_BATCH_SIZE, max(BATCH_SIZES))
    # Headline: the default batch size vs the degenerate one-row schedule.
    speedup = _LOCAL[default] / _LOCAL[1]
    lines.append(
        "default ({0}) vs batch=1: {1:.2f}x local speedup".format(
            default, speedup
        )
    )
    with open(results_path("batch_sweep.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    benchmark.extra_info["local_speedup_default_vs_1"] = round(speedup, 2)
    # The headline: compiled column kernels at the default batch size
    # must beat the one-row schedule by at least 5x on the local
    # scan->filter->join micro-benchmark.
    assert speedup >= 5.0, "\n".join(lines)
