"""Local shapes: stored-table queries the planner places and probes itself.

Each query runs on one engine, ``ROUNDS`` times, and the median wall
clock of ``engine.execute`` is written to
``benchmarks/results/local_shapes.txt``.  The shapes are the ones a
relational rewrite pass used to take: an ``IN`` probe (and its ``NOT
IN`` twin), two indexed disjunctions, a join with a one-table bound,
DISTINCT over a grouped aggregate, and ``SELECT *``.

Floor: ``NOT IN`` costs at most ``NOT_IN_FLOOR`` times ``IN`` on the
same tables.  Both probe one hash set per row; a per-row scan of the
candidate list made ``NOT IN`` about 60 times slower than a joined
``IN``.

Scale knob (environment): ``LOCAL_SHAPES_ROWS`` fact-table size
(default 12000).
"""

import os
import time
from statistics import median

from conftest import results_path
from repro.relational.types import DataType
from repro.storage import Database
from repro.wsq import WsqEngine

ROWS = int(os.environ.get("LOCAL_SHAPES_ROWS", "12000"))
ROUNDS = 10
NOT_IN_FLOOR = 3.0

#: (shape name, SQL).
SHAPES = [
    ("in_probe", "Select K From Big Where K In (Select K From Sub)"),
    ("not_in_probe", "Select K From Big Where K Not In (Select K From Sub)"),
    (
        "disjoint_windows",
        "Select K, Tag From Tagged Where Tag = 't003' or Tag = 't097' or Tag = 't151'",
    ),
    ("int_windows", "Select K, Pad From Big Where G = 3 or G = 97 or G = 151"),
    (
        "bounded_join",
        "Select Big.K From Big, Dim Where Big.K = Dim.K and Dim.K > {}".format(
            ROWS * 5 // 6
        ),
    ),
    ("distinct_aggregate", "Select Distinct K, Count(*) From Big Group By K"),
    ("select_star", "Select * From Big"),
]


def _shapes_db():
    """Fact table, join dimension and IN-probe side, indexed and analyzed."""
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


def _seconds(engine, sql):
    started = time.perf_counter()
    rows = engine.execute(sql).rows
    return time.perf_counter() - started, rows


def test_local_shapes(capsys):
    engine = WsqEngine(database=_shapes_db())
    cells = {}
    for name, sql in SHAPES:
        engine.execute(sql)  # warm: page cache, kernels, statement table
        timings = [_seconds(engine, sql) for _ in range(ROUNDS)]
        cells[name] = (median(s for s, _ in timings), len(timings[-1][1]))

    # IN and NOT IN split Big between them.
    assert cells["in_probe"][1] + cells["not_in_probe"][1] == ROWS
    lines = ["local shapes ({} rows, median of {} runs):".format(ROWS, ROUNDS)]
    for name, _ in SHAPES:
        seconds, rows = cells[name]
        lines.append("  {:20s} {:.4f}s  {} rows".format(name, seconds, rows))
    ratio = cells["not_in_probe"][0] / cells["in_probe"][0]
    lines.append("  not_in / in          {:.2f}x".format(ratio))
    table = "\n".join(lines)
    with open(results_path("local_shapes.txt"), "w", encoding="utf-8") as f:
        f.write(table + "\n")
    with capsys.disabled():
        print("\n" + table)
    assert ratio <= NOT_IN_FLOOR, (
        "NOT IN took {:.2f}x the time of IN, above the {}x floor".format(
            ratio, NOT_IN_FLOOR
        )
    )
