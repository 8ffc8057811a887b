"""The Table 1 driver: three templates, two runs, sync vs async."""

import gc
import time

from repro.bench.workloads import bench_engine, template_queries


class Table1Row:
    """One row of the reproduced Table 1."""

    def __init__(self, template, run, queries, sync_seconds, async_seconds):
        self.template = template
        self.run = run
        self.queries = queries
        self.sync_seconds = sync_seconds  # mean per query
        self.async_seconds = async_seconds

    @property
    def improvement(self):
        if self.async_seconds == 0:
            return float("inf")
        return self.sync_seconds / self.async_seconds


def time_queries(engine, queries, mode):
    """Mean wall-clock seconds per query for *queries* under *mode*, after an
    untimed full collection (else one the engine's build set off stalls a query)."""
    gc.collect()
    started = time.perf_counter()
    for sql in queries:
        engine.execute(sql, mode=mode)
    return (time.perf_counter() - started) / len(queries)


def run_table1(instances=8, runs=2, latency=None, engine_factory=None):
    """Reproduce Table 1; returns a list of :class:`Table1Row`.

    A fresh engine (no result cache) serves each (template, run, mode)
    cell, mirroring the paper's care to keep caching out of the numbers.
    """
    rows = []
    kwargs = {} if latency is None else {"latency": latency}
    factory = engine_factory or (lambda: bench_engine(**kwargs))
    for template in (1, 2, 3):
        for run in range(1, runs + 1):
            queries = template_queries(template, instances=instances, run=run)
            sync_mean = time_queries(factory(), queries, "sync")
            async_mean = time_queries(factory(), queries, "async")
            rows.append(Table1Row(template, run, len(queries), sync_mean, async_mean))
    return rows


def format_table1(rows, paper=None):
    """Render rows in the paper's Table-1 layout.

    *paper* optionally maps ``(template, run)`` to the paper's published
    ``(sync, async, improvement)`` triple for side-by-side comparison.
    """
    out = []
    header = "{:<22}{:>14}{:>16}{:>13}".format(
        "", "Synchronous (s)", "Asynchronous (s)", "Improvement"
    )
    out.append(header)
    for row in rows:
        out.append("Template {}".format(row.template) if row.run == 1 else "")
        line = "{:<22}{:>14.3f}{:>16.3f}{:>12.1f}x".format(
            "  Run {} ({} queries)".format(row.run, row.queries),
            row.sync_seconds,
            row.async_seconds,
            row.improvement,
        )
        out.append(line)
        if paper and (row.template, row.run) in paper:
            psync, pasync, pimp = paper[(row.template, row.run)]
            out.append(
                "{:<22}{:>14.2f}{:>16.2f}{:>12.1f}x".format(
                    "    (paper)", psync, pasync, pimp
                )
            )
    return "\n".join(line for line in out if line != "")


#: The published Table 1 (mean seconds per query and improvement factor).
PAPER_TABLE1 = {
    (1, 1): (23.13, 3.88, 6.0),
    (1, 2): (32.8, 3.5, 9.4),
    (2, 1): (70.75, 5.25, 13.5),
    (2, 2): (64.25, 5.13, 12.5),
    (3, 1): (122.5, 6.25, 19.6),
    (3, 2): (76.13, 4.63, 16.4),
}
