"""Indexes, auto mode, and per-operator actuals.

Beyond the paper's scope, this library ships the pieces a production
deployment of WSQ would want: B+tree secondary indexes, an ``auto``
execution mode and ``explain(form="analyze")``.  This example tours them:

1. build a persistent database with an index,
2. compare the plans with and without the index,
3. analyze a WSQ query in both execution modes — watch the time move
   from the EVScan (sequential network waits) into one ReqSync wait,
4. let ``mode="auto"`` pick the execution strategy: asynchronous
   iteration exactly when the plan has an external scan.

Run:  python examples/indexes_and_profiling.py
"""

import tempfile

from repro import Database, UniformLatency, WsqEngine, load_all

QUERY = (
    "Select Name, Count From Sigs, WebCount "
    "Where Name = T1 and T2 = 'Knuth' Order By Count Desc"
)


def main():
    with tempfile.TemporaryDirectory(prefix="wsq-demo-") as directory:
        with Database(directory) as database:
            load_all(database)
            engine = WsqEngine(
                database=database,
                latency=UniformLatency(0.01, 0.03),
            )

            print("== B+tree index changes the access path ==")
            sql = "Select Name From States Where Population Between 600 and 800"
            print("without index:")
            print(engine.explain(sql, mode="sync"))
            engine.run("Create Index idx_pop On States (Population)")
            print("with index:")
            print(engine.explain(sql, mode="sync"))
            print()

            print("== explain analyze: where does the time go? ==")
            print(engine.explain(QUERY, mode="sync", form="analyze"))
            print()
            print(engine.explain(QUERY, mode="async", form="analyze"))
            print()

            print("== auto mode: an external scan decides ==")
            for sql in (
                "Select Count(*) From States",  # local-only -> stays sequential
                QUERY,  # external calls -> asynchronous iteration
            ):
                plan = engine.plan(sql, mode="auto")
                verdict = "async" if "ReqSync" in plan.explain() else "sync"
                print("  {:<70} -> {}".format(sql[:68], verdict))

        # Closing (the ``with`` block) writes every page back: the directory
        # reopens with what the database held.
        with Database(directory) as reopened:
            count = reopened.table("States").row_count()
            print("\nreopened database: States has {} rows".format(count))


if __name__ == "__main__":
    main()
