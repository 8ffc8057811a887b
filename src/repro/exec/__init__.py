"""Iterator-based query execution (Graefe-style Open/GetNext/Close).

Every operator implements ``open()`` / ``next_batch(max_rows)`` /
``close()`` and carries its output
:class:`~repro.relational.schema.Schema`; batches are
:class:`~repro.relational.batch.ColumnBatch` chunks, and ``next()`` is
the base class's one-row view of the same pull (see
:mod:`repro.exec.operator` for the contract).  Placeholder values flow
through "oblivious" operators untouched; operators that *depend on*
attribute values (filters, sorts, aggregates) evaluate expressions that
raise :class:`~repro.util.errors.PlaceholderError` on unresolved
placeholders, which turns any ReqSync-placement bug into a loud failure.
"""

from repro.exec.operator import (
    Operator,
    collect,
    collect_batches,
    execute,
    execute_batches,
    open_plan,
    set_batch_size,
)
from repro.relational.batch import ColumnBatch
from repro.exec.scans import RowsScan, TableScan
from repro.exec.indexscan import IndexScan
from repro.exec.filter import Filter
from repro.exec.project import Project
from repro.exec.joins import CrossProduct, DependentJoin, NestedLoopJoin
from repro.exec.sort import Sort
from repro.exec.distinct import Distinct
from repro.exec.aggregate import Aggregate, AggregateSpec
from repro.exec.limit import Limit
from repro.exec.union import UnionAll

__all__ = [
    "Aggregate",
    "AggregateSpec",
    "ColumnBatch",
    "CrossProduct",
    "DependentJoin",
    "Distinct",
    "Filter",
    "IndexScan",
    "Limit",
    "NestedLoopJoin",
    "Operator",
    "Project",
    "RowsScan",
    "Sort",
    "TableScan",
    "UnionAll",
    "collect",
    "collect_batches",
    "execute",
    "execute_batches",
    "open_plan",
    "set_batch_size",
]
