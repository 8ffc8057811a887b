"""Relational data model shared by every layer.

This package defines the value types, column/schema metadata, and the bound
(executable) expression tree.  The SQL front end produces *unbound* syntax
trees (:mod:`repro.sql.ast`); the planner resolves names against schemas and
emits the bound expressions defined here.
"""

from repro.relational.types import DataType, coerce_value, infer_literal_type
from repro.relational.schema import Column, Schema
from repro.relational.batch import (
    DEFAULT_BATCH_SIZE,
    ColumnBatch,
    type_column,
)
from repro.relational.expr import (
    BinaryOp,
    BoundExpr,
    ColumnRef,
    Comparison,
    Conjunction,
    Disjunction,
    Literal,
    Negation,
    compile_column_eval,
    compile_column_predicate,
    compile_column_projection,
    kernel_stats,
)
from repro.relational.placeholder import (
    Placeholder,
    is_placeholder,
    row_pending_calls,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ColumnBatch",
    "Placeholder",
    "is_placeholder",
    "row_pending_calls",
    "BinaryOp",
    "BoundExpr",
    "Column",
    "ColumnRef",
    "Comparison",
    "Conjunction",
    "DataType",
    "Disjunction",
    "Literal",
    "Negation",
    "Schema",
    "coerce_value",
    "compile_column_eval",
    "compile_column_predicate",
    "compile_column_projection",
    "infer_literal_type",
    "kernel_stats",
    "type_column",
]
