"""Projection (with computed expressions)."""

from array import array

from repro.exec.operator import Operator
from repro.relational.batch import ColumnBatch, type_column
from repro.relational.expr import compile_column_projection


class Project(Operator):
    """Evaluate one output expression per result column.

    A bare column reference is copied *raw* — placeholders pass through,
    since moving a value does not depend on it.  Computed expressions
    (arithmetic etc.) genuinely depend on their inputs and therefore raise
    on placeholders; clash rule 2 (projection must not drop placeholder
    attributes) is enforced by the plan rewriter, not here.

    The output expressions are compiled once per operator, at the first
    pull, into a column transformer (:func:`compile_column_projection`)
    — bare references pass whole column vectors through zero-copy,
    computed expressions run as kernels, and the outputs are re-typed
    against the projection schema.
    """

    def __init__(self, child, expressions, schema):
        assert len(expressions) == len(schema)
        self.child = child
        self.expressions = list(expressions)
        self.schema = schema
        self.children = (child,)
        self._column_project = None

    def open(self, bindings=None):
        self.child.open(bindings)

    def next_batch(self, max_rows=None):
        limit = max_rows if max_rows is not None else self.batch_size
        if self._column_project is None:
            self._column_project = compile_column_projection(self.expressions)
        project = self._column_project
        batch = self.child.next_batch(limit)
        if batch is None:
            return None
        columns = [
            col if isinstance(col, array) else type_column(col, spec.type)
            for col, spec in zip(project(batch), self.schema)
        ]
        return ColumnBatch.from_columns(self.schema, columns, len(batch))

    def close(self):
        self.child.close()

    def label(self):
        rendered = ", ".join(
            expr.sql(self.child.schema) for expr in self.expressions
        )
        return "Project: {}".format(rendered)
