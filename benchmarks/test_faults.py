"""Chaos benchmark: asynchronous iteration under a faulty Web.

The Table 1 comparison assumes reliable engines; this benchmark repeats
the Template-1 workload with a seeded 10% transient-fault schedule and
``on_error="drop"`` graceful degradation, and checks that

- the asynchronous plan still beats the sequential baseline by a wide
  margin (retries add round trips, they do not serialize them),
- both modes degrade to the *same* surviving rows, and
- the retry machinery is actually exercised (``retries > 0``).

Results land in ``benchmarks/results/faults.txt``.
"""

from statistics import mean

import pytest

from conftest import results_path, timed
from repro.asynciter.resilience import ResiliencePolicy, RetryPolicy
from repro.bench.workloads import bench_engine, template_queries
from repro.web.faults import FaultModel

INSTANCES = 4
SEED = 1902
RATE = 0.10

_MEASURED = {}  # mode -> (seconds, rows, pump_retries)


def chaos_engine():
    return bench_engine(
        faults=FaultModel(seed=SEED, transient_rate=RATE),
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, base_backoff=0.001)
        ),
        on_error="drop",
    )


def _run(benchmark, mode):
    queries = template_queries(1, instances=INSTANCES)
    state = {}

    def setup():
        state["engine"] = chaos_engine()
        state["rows"] = []
        return (), {}

    def target():
        engine = state["engine"]
        for sql in queries:
            state["rows"].extend(engine.execute(sql, mode=mode).rows)

    target, seconds = timed(target)
    benchmark.pedantic(target, setup=setup, rounds=2, iterations=1)
    engine = state["engine"]
    _MEASURED[mode] = (
        mean(seconds),
        sorted(state["rows"], key=str),
        engine.pump.stats.snapshot()["retries"],
    )
    engine.pump.shutdown()
    benchmark.extra_info["mode"] = mode


def test_faulty_workload_synchronous(benchmark):
    _run(benchmark, "sync")


def test_faulty_workload_asynchronous(benchmark):
    _run(benchmark, "async")


def test_faults_summary(benchmark):
    def noop():
        return None

    benchmark.pedantic(noop, rounds=1, iterations=1)
    if "sync" not in _MEASURED or "async" not in _MEASURED:
        pytest.skip("per-mode cells did not run")
    sync_seconds, sync_rows, sync_retries = _MEASURED["sync"]
    async_seconds, async_rows, async_retries = _MEASURED["async"]
    improvement = sync_seconds / async_seconds

    # Graceful degradation is mode-independent: identical surviving rows.
    assert sync_rows == async_rows
    # The schedule injected faults and the pump retried them in both modes.
    assert sync_retries > 0
    assert async_retries > 0
    # Retries cost extra round trips but never serialize the async plan.
    assert improvement > 3, "async should still win clearly under faults"

    lines = [
        "Template 1 under 10% transient faults (seed {}, drop policy)".format(SEED),
        "  sync : {:.3f}s  ({} retries in the pump)".format(
            sync_seconds, sync_retries
        ),
        "  async: {:.3f}s  ({} retries in the pump)".format(
            async_seconds, async_retries
        ),
        "  improvement: {:.1f}x".format(improvement),
        "  surviving rows per run: {}".format(len(sync_rows)),
    ]
    report = "\n".join(lines)
    with open(results_path("faults.txt"), "w", encoding="utf-8") as f:
        f.write(report + "\n")
    print("\n" + report)
    benchmark.extra_info["improvement"] = round(improvement, 1)
