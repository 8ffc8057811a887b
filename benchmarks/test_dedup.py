"""Ablation: in-flight call deduplication ([CDY95] call minimization).

The Figure-7 plan shape sends |R| identical Google searches per Sig.  A
result cache cannot absorb duplicates that are launched concurrently
(none has completed when the next registers); in-flight deduplication in
the AsyncContext can, and so can the single-flight of the engine's own
pump, which joins every duplicate that finds its twin in flight.
Expected shape: identical results; with the query's dedup ~|R|x fewer
registrations reach the pump, and without it the pump's coalescing
still keeps the Google requests at or below one per registration; a
wall-clock win that grows with per-call overhead.
"""

import pytest

from repro.bench.placement import build_figure7_plan
from repro.bench.workloads import bench_engine
from repro.exec import collect

R_SIZE = 8


@pytest.mark.parametrize("dedup", [False, True], ids=["duplicates", "dedup"])
def test_figure7_duplicate_calls(benchmark, dedup):
    issued = {}

    def run():
        engine = bench_engine()
        plan, _ = build_figure7_plan(engine, "a", R_SIZE, dedup=dedup)
        rows = collect(plan)
        issued["requests"] = sum(c.requests_sent for c in engine.clients.values())
        assert engine.pump.quiesce(timeout=5.0)
        issued["pump"] = engine.pump.stats.snapshot()
        return rows

    rows = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(rows) == 37 * R_SIZE
    pump = issued["pump"]
    assert pump["registered"] == (37 + 37 if dedup else 37 + 37 * R_SIZE)
    assert issued["requests"] == pump["registered"] - pump["coalesced"]
    assert issued["requests"] >= 37 + 37
    if dedup:
        assert pump["coalesced"] == 0
    benchmark.extra_info["requests"] = issued["requests"]
    benchmark.extra_info["coalesced"] = pump["coalesced"]
