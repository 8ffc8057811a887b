"""Table 1 (paper Section 5): the headline sync-vs-async comparison.

One call of :func:`repro.bench.table1.run_table1` in the paper's layout —
three templates x 8 instances x 2 runs, a fresh uncached engine per cell.
The paper reports improvement factors of 6.0x-19.6x; the test writes the
reproduced table (with the paper's numbers alongside) to
``benchmarks/results/table1.txt`` and asserts the shape floor
EXPERIMENTS.md states: asynchronous iteration wins every row by > 4x.
"""

from conftest import results_path
from repro.bench.table1 import PAPER_TABLE1, format_table1, run_table1


def test_table1():
    rows = run_table1(instances=8, runs=2)
    table = format_table1(rows, paper=PAPER_TABLE1)
    with open(results_path("table1.txt"), "w", encoding="utf-8") as f:
        f.write(table + "\n")
    print("\n" + table)
    assert [(row.template, row.run) for row in rows] == sorted(PAPER_TABLE1)
    for row in rows:
        assert row.improvement > 4, "async should win clearly (paper: 6x-19.6x)"
