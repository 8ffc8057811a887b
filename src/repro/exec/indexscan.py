"""Index scan: B+tree range access followed by heap fetches."""

from repro.exec.operator import Operator
from repro.util.errors import ExecutionError


class IndexScan(Operator):
    """Scan one table through a secondary index.

    Emits rows whose index key falls within ``[low, high]`` (either bound
    optional, inclusivity per flag), in key order.  Rows are fetched from
    the heap by RID.
    """

    def __init__(
        self,
        table,
        index,
        qualifier=None,
        low=None,
        high=None,
        include_low=True,
        include_high=True,
    ):
        self.table = table
        self.index = index
        self.qualifier = qualifier or table.name
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high
        self.schema = table.schema.with_qualifier(self.qualifier)
        self.children = ()
        self._iterator = None

    def open(self, bindings=None):
        self._reject_bindings(bindings)
        self._iterator = self.index.range_scan(
            self.low, self.high, self.include_low, self.include_high
        )

    def next_batch(self, max_rows=None):
        if self._iterator is None:
            raise ExecutionError("IndexScan.next_batch() before open()")
        limit = max_rows if max_rows is not None else self.batch_size
        read = self.table.read
        rows = []
        append = rows.append
        for _, rid in self._iterator:
            row = read(rid)
            if row is not None:
                append(row)
                if len(rows) >= limit:
                    break
        if not rows:
            return None
        return self.make_batch(rows)

    def close(self):
        self._iterator = None

    def label(self):
        if self.low is not None and self.low == self.high:
            bounds = "= {!r}".format(self.low)
        else:
            parts = []
            if self.low is not None:
                parts.append(
                    "{} {!r}".format(">=" if self.include_low else ">", self.low)
                )
            if self.high is not None:
                parts.append(
                    "{} {!r}".format("<=" if self.include_high else "<", self.high)
                )
            bounds = " and ".join(parts) or "full"
        return "IndexScan: {} ({} {})".format(
            self.qualifier, self.index.column_name, bounds
        )
