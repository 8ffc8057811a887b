"""Bag union.

The paper's percolation discussion uses exactly this rewrite: a clashing
set-union is replaced by a *non-clashing* bag union with a ``Select
Distinct`` above it, letting ReqSync rise through the union.
"""

from repro.exec.operator import Operator
from repro.util.errors import ExecutionError


class UnionAll(Operator):
    """Concatenate the rows of two schema-compatible children."""

    def __init__(self, left, right):
        if len(left.schema) != len(right.schema):
            raise ExecutionError("UNION arms have different arity")
        self.left = left
        self.right = right
        self.schema = left.schema
        self.children = (left, right)
        self._stage = None

    def open(self, bindings=None):
        self._reject_bindings(bindings)
        self.left.open()
        self._stage = 0

    def next_batch(self, max_rows=None):
        if self._stage is None:
            raise ExecutionError("UnionAll.next_batch() before open()")
        limit = max_rows if max_rows is not None else self.batch_size
        if self._stage == 2:
            return None
        if self._stage == 0:
            batch = self.left.next_batch(limit)
            if batch is not None:
                return batch
            self.left.close()
            self.right.open()
            self._stage = 1
        batch = self.right.next_batch(limit)
        if batch is None:
            self.right.close()
            self._stage = 2
            return None
        # Re-tag with the union's (left-derived) schema (zero-copy).
        return batch.with_schema(self.schema)

    def close(self):
        if self._stage == 0:
            self.left.close()
        elif self._stage == 1:
            self.right.close()
        self._stage = None

    def label(self):
        return "Union All"
