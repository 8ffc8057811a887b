"""Leaf scans: stored tables and in-memory row collections."""

from array import array

from repro.exec.operator import Operator
from repro.relational.batch import ColumnBatch, type_column
from repro.util.errors import ExecutionError


def _extend_column(dst, src):
    """Append column chunk *src* onto *dst*, degrading typed storage only
    when the incoming chunk can't keep it (e.g. a page with NULLs)."""
    if isinstance(dst, array) and not (
        isinstance(src, array) and src.typecode == dst.typecode
    ):
        dst = list(dst)
    dst.extend(src)
    return dst


class TableScan(Operator):
    """Sequential scan of a stored table through the buffer pool.

    Pages decode straight into typed column vectors
    (``Table.scan_column_batches()``), which are re-chunked to the
    caller's ``max_rows`` — batches reach the operators column-major
    without a pivot.  *columns* is the set of schema positions the plan
    above reads (``None`` = all, what a hand-built plan gets); lowering
    computes it, and the other positions arrive NULL-filled, undecoded.
    *predicate* is a selection the page decoder runs: a row it is not
    true on reaches no vector, and a pull gathers ``max_rows`` survivors
    (or to the table's end).  ``decode`` is resolved once, here; ``None``
    (the predicate may raise) keeps lowering's ``Filter`` and fails ``open()``.
    """

    def __init__(self, table, qualifier=None, columns=None, predicate=None):
        self.table = table
        self.columns = columns
        self.predicate = predicate
        self.decode = table.decoder(columns, predicate)
        self.qualifier = qualifier or table.name
        self.schema = table.schema.with_qualifier(self.qualifier)
        self.children = ()
        self._chunks = None
        self._pending_cols = None

    def open(self, bindings=None):
        self._reject_bindings(bindings)
        self._chunks = self.table.scan_decoded(self.decode)
        self._pending_cols = None

    def next_batch(self, max_rows=None):
        if self._chunks is None:
            raise ExecutionError("TableScan.next_batch() before open()")
        limit = max_rows if max_rows is not None else self.batch_size
        cols = self._pending_cols
        count = len(cols[0]) if cols else 0
        while count < limit:
            chunk = next(self._chunks, None)
            if chunk is None:
                break
            if not cols:
                cols = list(chunk)
            else:
                cols = [
                    _extend_column(dst, src) for dst, src in zip(cols, chunk)
                ]
            count = len(cols[0]) if cols else 0
        if not count:
            self._pending_cols = None
            return None
        if count > limit:
            self._pending_cols = [col[limit:] for col in cols]
            cols = [col[:limit] for col in cols]
            count = limit
        else:
            self._pending_cols = None
        return ColumnBatch.from_columns(self.schema, cols, count)

    def close(self):
        self._chunks = None
        self._pending_cols = None

    def label(self):
        where = "" if self.predicate is None else " where " + self.predicate.sql(self.schema)
        return "Scan: {}{}".format(self.qualifier, where)


class RowsScan(Operator):
    """Scan over a fixed in-memory row list (tests, VALUES, DSQ internals)."""

    def __init__(self, schema, rows, name="rows"):
        self.schema = schema
        self.rows_data = [tuple(r) for r in rows]
        self.name = name
        self.children = ()
        self._position = None
        self._columns = None

    def open(self, bindings=None):
        self._reject_bindings(bindings)
        self._position = 0
        # Subclasses may rebuild ``rows_data`` per open (e.g. scans whose
        # rows embed freshly registered calls), so the typed pivot cannot
        # outlive one open/close cycle.
        self._columns = None

    def next_batch(self, max_rows=None):
        if self._position is None:
            raise ExecutionError("RowsScan.next_batch() before open()")
        limit = max_rows if max_rows is not None else self.batch_size
        start = self._position
        if start >= len(self.rows_data):
            return None
        # The row list is immutable while the scan is open, so the typed
        # pivot is computed once per open and sliced per batch (array
        # slices stay arrays: no per-batch re-typing).
        if self._columns is None:
            self._columns = [
                type_column(values, column.type)
                for values, column in zip(zip(*self.rows_data), self.schema)
            ]
        stop = min(start + limit, len(self.rows_data))
        self._position = stop
        return ColumnBatch.from_columns(
            self.schema,
            [col[start:stop] for col in self._columns],
            stop - start,
        )

    def close(self):
        self._position = None

    def label(self):
        return "Scan: {} ({} rows)".format(self.name, len(self.rows_data))
