"""Rewrite pair benchmark: unoptimized vs optimized plan, per rule.

A curated corpus of SQL statements, one per structural rule of the
relational pipeline.  Each pair executes the *same* SQL twice on one
traced, calibrated engine — once as the unoptimized plan
(``lower(planner.plan_logical(q))``, the tree no rule has touched),
once as the engine runs it — asserts the two row sets are identical,
and times the two sides in ten *alternating* (unoptimized, optimized)
rounds, so a change in machine speed lands on both sides of a round.

The engine is calibrated from its own warm-up trace before any timed
run (``recalibrate()``), so the cost gates that admit each rewrite are
exercised with measured figures, not the static defaults.

Floors:

- no harm — a rule that fires must not lose to the plan it replaced:
  the optimized side may not be the slower one in 9 or more of the 10
  rounds (``perf/compare.py``'s rule for a real difference, pointed the
  other way — single timings of the ~1.1x ``drop_distinct`` pair cross
  1.0x in 2-3 rounds of 10, so a ratio floor of 1.0 would flake);
- the ``or_to_union`` and ``early_filter`` headline pairs clear 2x on
  the median of the per-round ratios.  The ``or_to_union`` headliner is
  a disjunction over a string column: a selection only ``Filter`` can
  run.  The same disjunction over an INT column
  (``or_to_union_int_windows``) is one the page decoder runs inside the
  scan, a baseline about twice as fast; that pair is held to the no-harm
  floor.

Scale knob (environment): ``REWRITE_PAIRS_ROWS`` fact-table size
(default 12000).
"""

import os
import time
from statistics import median

from repro.exec import collect
from repro.obs import Observability
from repro.plan.physical import lower
from repro.plan.planner import Planner
from repro.relational.types import DataType
from repro.sql.parser import parse_select
from repro.storage import Database
from repro.wsq import WsqEngine

ROWS = int(os.environ.get("REWRITE_PAIRS_ROWS", "12000"))
ROUNDS = 10
HEADLINE_FLOOR = 2.0
HEADLINE_PAIRS = ("or_to_union_disjoint_windows", "early_filter_derived_window")

#: (pair name, SQL, rule that must fire on it).
SQL_PAIRS = [
    (
        "decorrelate_in_probe",
        "Select K From Big Where K In (Select K From Sub)",
        "decorrelate.in_to_join",
    ),
    (
        "or_to_union_disjoint_windows",
        "Select K, Tag From Tagged Where Tag = 't003' or Tag = 't097' or Tag = 't151'",
        "or_to_union.split_disjunction",
    ),
    (
        "or_to_union_int_windows",
        "Select K, Pad From Big Where G = 3 or G = 97 or G = 151",
        "or_to_union.split_disjunction",
    ),
    (
        "early_filter_derived_window",
        "Select Big.K From Big, Dim Where Big.K = Dim.K and Dim.K > {}".format(
            ROWS * 5 // 6
        ),
        "early_filter.derive_join_filter",
    ),
    (
        "agg_single_pass_drop_distinct",
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
    db.create_table_from_rows(
        "Tagged",
        [("K", DataType.INT), ("Tag", DataType.STR)],
        [(i, "t{:03d}".format(i % 200)) for i in range(ROWS)],
    )
    db.create_index("Big", "K")
    db.create_index("Big", "G")
    db.create_index("Tagged", "Tag")
    db.analyze()
    return db


def _calibrated_engine(db):
    """Traced engine whose cost model is calibrated from its own trace."""
    engine = WsqEngine(database=db, obs=Observability.enabled())
    engine.execute("Select K From Big Where G = 3")
    engine.execute("Select Count(*) From Big")
    engine.recalibrate()
    return engine


def _timed(run):
    started = time.perf_counter()
    rows = sorted(run())
    return time.perf_counter() - started, rows


def _unoptimized(engine, sql):
    """Plan and run *sql* with no optimizer rule applied."""
    planner = Planner(engine.database, engine.vtables, options=engine.config)
    return collect(lower(planner.plan_logical(parse_select(sql)), engine.config))


def test_rewrite_pairs(capsys):
    engine = _calibrated_engine(_pair_db())
    pairs = {}

    for name, sql, rule in SQL_PAIRS:
        fired = engine.explain(sql, form="rules")
        assert rule in fired, (
            "{}: expected {} to fire, got: {}".format(name, rule, fired)
        )
        rounds = []  # (unoptimized seconds, optimized seconds)
        for _ in range(ROUNDS):
            base_seconds, base_rows = _timed(lambda: _unoptimized(engine, sql))
            opt_seconds, opt_rows = _timed(lambda: engine.execute(sql).rows)
            assert opt_rows == base_rows, "{}: row mismatch".format(name)
            rounds.append((base_seconds, opt_seconds))
        pairs[name] = {
            "speedup": median(base / opt for base, opt in rounds),
            "base_seconds": median(base for base, _ in rounds),
            "optimized_seconds": median(opt for _, opt in rounds),
            "losses": sum(opt > base for base, opt in rounds),
            "rows": len(base_rows),
        }

    with capsys.disabled():
        print(
            "\nrewrite pairs ({} rows, {} alternating rounds, medians):".format(
                ROWS, ROUNDS
            )
        )
        for name in sorted(pairs):
            cell = pairs[name]
            print(
                "  {:32s} {:6.2f}x  ({:.4f}s -> {:.4f}s, lost {} of {}, "
                "{} rows)".format(
                    name,
                    cell["speedup"],
                    cell["base_seconds"],
                    cell["optimized_seconds"],
                    cell["losses"],
                    ROUNDS,
                    cell["rows"],
                )
            )

    for name, cell in pairs.items():
        assert cell["losses"] < 0.9 * ROUNDS, (
            "{}: optimized plan lost {} of {} rounds to the plan it "
            "replaced".format(name, cell["losses"], ROUNDS)
        )
    for name in HEADLINE_PAIRS:
        assert pairs[name]["speedup"] >= HEADLINE_FLOOR, (
            "{} median speedup {:.2f}x below the {}x headline floor".format(
                name, pairs[name]["speedup"], HEADLINE_FLOOR
            )
        )
