"""Sorting (full materialization, stable)."""

import functools

from repro.exec.operator import Operator
from repro.relational.expr import compile_column_eval
from repro.util.errors import ExecutionError


def _compare_values(a, b):
    """SQL-ish comparison with NULLs last (ascending)."""
    if a is None and b is None:
        return 0
    if a is None:
        return 1
    if b is None:
        return -1
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


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
        decorated = []
        while True:
            batch = self.child.next_batch(self.batch_size)
            if batch is None:
                break
            rows = batch.to_rows()
            if self._evaluators:
                key_columns = [evaluate(batch) for evaluate in self._evaluators]
                decorated.extend(zip(zip(*key_columns), rows))
            else:
                decorated.extend(((), row) for row in rows)
        self.child.close()
        comparator = self._make_comparator()
        decorated.sort(key=functools.cmp_to_key(comparator))
        self._buffer = [row for _, row in decorated]
        self._position = 0

    def _make_comparator(self):
        directions = [descending for _, descending in self.keys]

        def compare(a, b):
            for i, descending in enumerate(directions):
                result = _compare_values(a[0][i], b[0][i])
                if result != 0:
                    return -result if descending else result
            return 0

        return compare

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
