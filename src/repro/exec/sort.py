"""Sorting (full materialization, stable)."""

from repro.exec.operator import Operator
from repro.relational.expr import compile_column_eval
from repro.util.errors import ExecutionError


class Sort(Operator):
    """ORDER BY: materialize the child, sort by the key expressions.

    Key evaluation depends on attribute values, so a placeholder in a sort
    key raises — ReqSync must sit below any Sort over its attributes (the
    paper's Figure 3 plan has exactly this shape).
    """

    def __init__(self, child, keys):
        # keys: list of (BoundExpr, descending) pairs.
        self.child = child
        self.keys = list(keys)
        self.schema = child.schema
        self.children = (child,)
        self._buffer = None
        self._position = 0
        self._evaluators = None

    def open(self, bindings=None):
        self._reject_bindings(bindings)
        self.child.open()
        # Each key is extracted as one kernel-compiled column gather per
        # batch instead of a per-row tuple build; compiled once per operator.
        if self._evaluators is None:
            self._evaluators = [compile_column_eval(expr) for expr, _ in self.keys]
        rows = []
        key_columns = [[] for _ in self.keys]
        try:  # a failed drain closes the child too: a ReqSync below cancels its calls
            while True:
                batch = self.child.next_batch(self.batch_size)
                if batch is None:
                    break
                rows.extend(batch.to_rows())
                for column, evaluate in zip(key_columns, self._evaluators):
                    column.extend(evaluate(batch))
        finally:
            self.child.close()
        # One stable pass per key, last key first: NULLs sort as the
        # largest value (last ascending, first descending) and ties keep
        # arrival order under ``reverse`` too.
        order = list(range(len(rows)))
        for column, (_, descending) in reversed(list(zip(key_columns, self.keys))):
            order.sort(key=lambda i: (column[i] is None, column[i]), reverse=descending)
        self._buffer = [rows[i] for i in order]
        self._position = 0

    def next_batch(self, max_rows=None):
        if self._buffer is None:
            raise ExecutionError("Sort.next_batch() before open()")
        limit = max_rows if max_rows is not None else self.batch_size
        start = self._position
        if start >= len(self._buffer):
            return None
        rows = self._buffer[start : start + limit]
        self._position = start + len(rows)
        return self.make_batch(rows)

    def close(self):
        self._buffer = None
        self._position = 0

    def label(self):
        rendered = ", ".join(
            "{}{}".format(expr.sql(self.schema), " Desc" if descending else "")
            for expr, descending in self.keys
        )
        return "Sort: {}".format(rendered)
