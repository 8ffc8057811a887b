"""Rewrite-pack pair benchmark: original vs optimized, gated speedups.

A curated corpus of original:optimized query pairs, one or more per
opt-in rewrite pack.  Each pair executes the *same* SQL (or, for the
union-merge shape the SQL grammar cannot express, the same hand-built
logical plan) twice under traced engines sharing one calibrated cost
model — once with every pack off, once with the pack under test on —
asserts the two row sets are identical, and records the wall-clock
speedup.

The engines are calibrated from their own warm-up trace before any
timed run (``recalibrate()``), so the cost gates that admit each
rewrite are exercised with measured figures, not the static defaults.

Gates (also enforced downstream by the leaderboard family
``rewrite_pairs``):

- every pair's speedup clears the no-harm floor (>= 1.0x — a pack that
  fires must never lose to the plan it replaced);
- the ``or_to_union`` and ``early_filter`` headline pairs clear 2x.

Persists ``benchmarks/results/BENCH_rewrite.json``.

Scale knob (environment): ``REWRITE_PAIRS_ROWS`` fact-table size
(default 12000).
"""

import json
import os
import time

from conftest import results_path
from repro.config import EngineConfig
from repro.exec import collect
from repro.exec.aggregate import AggregateSpec
from repro.obs import Observability
from repro.plan import logical as L
from repro.plan import rules as R
from repro.plan.physical import lower
from repro.plan.planner import Planner
from repro.relational.expr import ColumnRef, Comparison, Literal
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.storage import Database
from repro.wsq import WsqEngine

ROWS = int(os.environ.get("REWRITE_PAIRS_ROWS", "12000"))
REPEATS = 3
CONFIG = EngineConfig.resolve()
PAIR_FLOOR = 1.0
HEADLINE_FLOOR = 2.0
HEADLINE_PAIRS = ("or_to_union_disjoint_windows", "early_filter_derived_window")

#: (pair name, pack, SQL, rule the pack must fire on it).
SQL_PAIRS = [
    (
        "decorrelate_in_probe",
        "decorrelate",
        "Select K From Big Where K In (Select K From Sub)",
        "decorrelate.in_to_join",
    ),
    (
        "or_to_union_disjoint_windows",
        "or_to_union",
        "Select K, Pad From Big Where G = 3 or G = 97 or G = 151",
        "or_to_union.split_disjunction",
    ),
    (
        "early_filter_derived_window",
        "early_filter",
        "Select Big.K From Big, Dim Where Big.K = Dim.K and Dim.K > {}".format(
            ROWS * 5 // 6
        ),
        "early_filter.derive_join_filter",
    ),
    (
        "agg_single_pass_drop_distinct",
        "agg_single_pass",
        "Select Distinct K, Count(*) From Big Group By K",
        "agg_single_pass.drop_distinct",
    ),
]


def _pair_db():
    """Fact table + join dimension + IN-probe side, indexed and analyzed."""
    db = Database()
    db.create_table_from_rows(
        "Big",
        [("K", DataType.INT), ("G", DataType.INT), ("Pad", DataType.STR)],
        [(i, i % 200, "p{}".format(i % 17)) for i in range(ROWS)],
    )
    db.create_table_from_rows(
        "Dim",
        [("K", DataType.INT)],
        [(i * (ROWS // 50),) for i in range(50)],
    )
    db.create_table_from_rows(
        "Sub", [("K", DataType.INT)], [(i * 10,) for i in range(ROWS // 6)]
    )
    db.create_index("Big", "K")
    db.create_index("Big", "G")
    db.analyze()
    return db


def _calibrated_engine(db, rules):
    """Traced engine whose cost model is calibrated from its own trace."""
    engine = WsqEngine(database=db, rules=rules, obs=Observability.enabled())
    engine.execute("Select K From Big Where G = 3")
    engine.execute("Select Count(*) From Big")
    applied, _, reason = engine.recalibrate()
    assert applied, "calibration rejected: {}".format(reason)
    return engine


def _timed_sql(engine, sql):
    best, rows = float("inf"), None
    for _ in range(REPEATS):
        started = time.perf_counter()
        rows = sorted(engine.execute(sql).rows)
        best = min(best, time.perf_counter() - started)
    return best, rows


def _timed_plan(tree):
    best, rows = float("inf"), None
    for _ in range(REPEATS):
        copy = R._clone_tree(tree)
        started = time.perf_counter()
        rows = sorted(collect(lower(copy, CONFIG)))
        best = min(best, time.perf_counter() - started)
    return best, rows


def _union_aggregate_plan(db):
    """Aggregate over a UNION ALL of disjointly filtered copies of Big —
    the multi-scan shape the grammar cannot spell but legacy/lifted
    plans expose, which ``agg_single_pass.merge_union`` collapses."""
    low = L.LogicalFilter(
        L.LogicalScan(db.table("Big")),
        Comparison("<", ColumnRef(0), Literal(ROWS // 2)),
    )
    high = L.LogicalFilter(
        L.LogicalScan(db.table("Big")),
        Comparison(">", ColumnRef(0), Literal(ROWS * 7 // 10)),
    )
    union = L.LogicalUnion(low, high)
    schema = Schema([Column("G", DataType.INT), Column("C", DataType.INT)])
    return L.LogicalAggregate(
        union, [ColumnRef(1)], [AggregateSpec("COUNT", star=True)], schema
    )


def test_rewrite_pairs(capsys):
    db = _pair_db()
    baseline = _calibrated_engine(db, rules=())
    pairs = {}

    for name, pack, sql, rule in SQL_PAIRS:
        optimized = _calibrated_engine(db, rules=(pack,))
        fired = optimized.explain(sql, form="rules")
        assert rule in fired, (
            "{}: expected {} to fire, got: {}".format(name, rule, fired)
        )
        base_seconds, base_rows = _timed_sql(baseline, sql)
        opt_seconds, opt_rows = _timed_sql(optimized, sql)
        assert opt_rows == base_rows, "{}: row mismatch".format(name)
        pairs[name] = {
            "pack": pack,
            "rule": rule,
            "base_seconds": round(base_seconds, 6),
            "optimized_seconds": round(opt_seconds, 6),
            "speedup": round(base_seconds / opt_seconds, 4),
            "rows": len(base_rows),
        }

    # -- merge_union: the one pair driven at plan level ----------------------
    planner = Planner(db, options=CONFIG.override(rules=("agg_single_pass",)))
    original = _union_aggregate_plan(db)
    merged, firings = planner.optimize(_union_aggregate_plan(db))
    assert "agg_single_pass.merge_union" in {f.rule for f in firings}
    base_seconds, base_rows = _timed_plan(original)
    opt_seconds, opt_rows = _timed_plan(merged)
    assert opt_rows == base_rows, "merge_union: row mismatch"
    pairs["agg_single_pass_merge_union"] = {
        "pack": "agg_single_pass",
        "rule": "agg_single_pass.merge_union",
        "base_seconds": round(base_seconds, 6),
        "optimized_seconds": round(opt_seconds, 6),
        "speedup": round(base_seconds / opt_seconds, 4),
        "rows": len(base_rows),
    }

    min_pair = min(pairs, key=lambda n: pairs[n]["speedup"])
    report = {
        "workload": {"rows": ROWS, "repeats": REPEATS, "pairs": len(pairs)},
        "pairs": pairs,
        "min_speedup": pairs[min_pair]["speedup"],
        "min_speedup_pair": min_pair,
        "headline": {
            name: pairs[name]["speedup"] for name in HEADLINE_PAIRS
        },
        "floors": {"pair_min": PAIR_FLOOR, "headline": HEADLINE_FLOOR},
    }
    path = results_path("BENCH_rewrite.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    with capsys.disabled():
        print("\nrewrite pairs ({} rows, best of {}):".format(ROWS, REPEATS))
        for name in sorted(pairs):
            cell = pairs[name]
            print(
                "  {:32s} {:6.2f}x  ({:.4f}s -> {:.4f}s, {} rows)".format(
                    name,
                    cell["speedup"],
                    cell["base_seconds"],
                    cell["optimized_seconds"],
                    cell["rows"],
                )
            )
        print("results -> {}".format(path))

    # The CI gates: no pair may lose, and the headliners must win big.
    for name, cell in pairs.items():
        assert cell["speedup"] >= PAIR_FLOOR, (
            "{} speedup {:.2f}x below the no-harm {}x floor".format(
                name, cell["speedup"], PAIR_FLOOR
            )
        )
    for name in HEADLINE_PAIRS:
        assert pairs[name]["speedup"] >= HEADLINE_FLOOR, (
            "{} speedup {:.2f}x below the {}x headline floor".format(
                name, pairs[name]["speedup"], HEADLINE_FLOOR
            )
        )
