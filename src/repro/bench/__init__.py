"""Benchmark harness: workloads, the Table-1 driver, Figure-7 placement.

Everything here is importable library code that an example or a tier-1
test reuses; the ``benchmarks/`` directory contains thin pytest wrappers
around it (harnesses only a benchmark needs live beside it there).
"""

from repro.bench.workloads import (
    TEMPLATE1,
    TEMPLATE2,
    TEMPLATE3,
    bench_engine,
    template_queries,
)
from repro.bench.table1 import Table1Row, format_table1, run_table1

__all__ = [
    "TEMPLATE1",
    "TEMPLATE2",
    "TEMPLATE3",
    "Table1Row",
    "bench_engine",
    "format_table1",
    "run_table1",
    "template_queries",
]
