"""The page walk's share of the local SQL shapes.

The four query shapes of ``perf/``'s ``local_sql`` workload (filter,
GROUP BY, equi-join and filter + ORDER BY, each with one fixed
parameter) over a seeded 20,000-row ``Orders`` table and the paper's
``States``.  Per shape, medians of ``ROUNDS`` runs: the wall clock of
``engine.execute``; the page walk, i.e. draining, outside the query,
each stored scan its plan runs (``Table.scan_decoded`` with the scan's
own decoder: pin, check, decode, unpin); and the buffer pool alone,
i.e. pinning and unpinning each page those scans visit, in their order.
Written to ``benchmarks/results/local_walk.txt``.

Floor (structural): the walk and the pool pass see the same pages: a
scan pins each heap page once.
"""

import random
import time
from statistics import median

from conftest import results_path
from repro.datasets import load_all
from repro.exec import TableScan
from repro.relational.types import DataType
from repro.storage import Database
from repro.wsq import WsqEngine

ROWS = 20000
ROUNDS = 20
SHAPES = [
    ("filter", "Select Id, Amount From Orders Where Amount < 55 and Qty > 25"),
    ("group", "Select State, Count(*), Sum(Amount) From Orders Where Qty >= 20 Group By State"),
    ("join", "Select Orders.Id, Capital From Orders, States "
             "Where Orders.State = States.Name and Amount > 970"),
    ("sort", "Select Id, Amount From Orders Where Qty = 20 Order By Amount Desc"),
]


def _orders_db():
    db = load_all(Database())
    names = [name for name, _, _ in db.table("States").scan()]
    rng = random.Random(2000)
    db.create_table_from_rows(
        "Orders",
        [("Id", DataType.INT), ("State", DataType.STR),
         ("Amount", DataType.FLOAT), ("Qty", DataType.INT)],
        [(i, rng.choice(names), rng.randrange(4, 4000) / 4.0, rng.randrange(1, 51))
         for i in range(ROWS)],
    )
    return db


def _scans(plan):
    if isinstance(plan, TableScan):
        return [plan]
    return [scan for child in plan.children for scan in _scans(child)]


def _seconds(run):
    """Median wall clock of *run()* over ``ROUNDS`` calls."""
    took = []
    for _ in range(ROUNDS):
        began = time.perf_counter()
        run()
        took.append(time.perf_counter() - began)
    return median(took)


def _walk(scans):
    for scan in scans:
        for _ in scan.table.scan_decoded(scan.decode):
            pass


def _pool(scans):
    for scan in scans:
        pool = scan.table.heap.pool
        for page_id in range(pool.disk.page_count):
            with pool.pin(page_id):
                pass


def test_local_walk(capsys):
    db = _orders_db()
    orders = db.table("Orders").heap.pool
    engine = WsqEngine(database=db)
    lines = ["local SQL shapes ({} Orders rows on {} pages; median of {} runs):".format(
        ROWS, orders.disk.page_count, ROUNDS)]
    for name, sql in SHAPES:
        engine.execute(sql)  # warm: kernels, decoders, statement table
        scans = _scans(engine.plan(sql))
        query = _seconds(lambda: engine.execute(sql))
        before = orders.hits + orders.misses
        walk = _seconds(lambda: _walk(scans))
        walked = orders.hits + orders.misses - before
        pool = _seconds(lambda: _pool(scans))
        assert orders.hits + orders.misses - before == 2 * walked
        assert walked == ROUNDS * orders.disk.page_count
        lines.append("  {:7s} p50 {:6.2f} ms  page walk {:5.2f} ms ({:3.0%})  "
                     "buffer pool {:4.2f} ms ({:3.0%})".format(
                         name, query * 1e3, walk * 1e3, walk / query, pool * 1e3, pool / query))
    table = "\n".join(lines)
    with open(results_path("local_walk.txt"), "w", encoding="utf-8") as f:
        f.write(table + "\n")
    with capsys.disabled():
        print("\n" + table)
