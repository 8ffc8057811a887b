"""Typed table API over a heap file."""

from repro.relational.batch import type_column
from repro.storage.serialization import decode_record, encode_record
from repro.util.errors import StorageError


class Table:
    """A named relation: schema + heap file + attached secondary indexes."""

    def __init__(self, name, schema, heap):
        self.name = name
        self.schema = schema
        self.heap = heap
        self.indexes = []  # TableIndex objects, kept in sync by DML
        #: Optional WAL hook: ``journal(op, row)`` called *before* the heap
        #: is touched (the write-ahead rule); installed by Database in WAL
        #: mode, absent during recovery replay.
        self.journal = None
        #: :class:`~repro.storage.stats.TableStats` from the last ANALYZE
        #: (``None`` until one runs; not invalidated by DML — like real
        #: systems, statistics go stale until re-analyzed).
        self.stats = None

    def attach_index(self, index):
        self.indexes.append(index)

    def index_on(self, column_name):
        """The index over *column_name*, or None."""
        for index in self.indexes:
            if index.column_name.lower() == column_name.lower():
                return index
        return None

    def insert(self, row):
        """Insert one row (sequence of values in schema order); return RID."""
        if self.journal is not None:
            self.journal("insert", row)
        rid = self.heap.insert(encode_record(row, self.schema))
        for index in self.indexes:
            index.insert(row, rid)
        return rid

    def insert_many(self, rows):
        return [self.insert(row) for row in rows]

    def scan(self):
        """Yield decoded rows (tuples) in storage order."""
        for _, record in self.heap.scan():
            yield decode_record(record, self.schema)

    def scan_column_batches(self):
        """Yield schema-typed column vectors, one group per non-empty heap page.

        Each yielded value is a list of per-attribute vectors (typed
        ``array`` for clean INT/FLOAT columns, plain lists otherwise)
        covering the page's rows in the storage order of :meth:`scan`.
        This feeds ``TableScan.next_batch()``, so pages decode straight
        into the layout the operators execute on.
        """
        schema = self.schema
        types = [column.type for column in schema]
        for chunk in self.heap.scan_batches():
            rows = [decode_record(record, schema) for _, record in chunk]
            if not rows:
                continue
            yield [
                type_column(values, data_type)
                for values, data_type in zip(zip(*rows), types)
            ]

    def scan_with_rids(self):
        for rid, record in self.heap.scan():
            yield rid, decode_record(record, self.schema)

    def read(self, rid):
        record = self.heap.read(rid)
        if record is None:
            return None
        return decode_record(record, self.schema)

    def delete(self, rid):
        row = self.read(rid) if (self.indexes or self.journal is not None) else None
        if row is not None and self.journal is not None:
            self.journal("delete", row)
        if row is not None:
            for index in self.indexes:
                index.delete(row, rid)
        self.heap.delete(rid)

    def delete_where(self, predicate):
        """Delete rows for which ``predicate(row)`` is truthy; return count."""
        victims = [
            (rid, row) for rid, row in self.scan_with_rids() if predicate(row)
        ]
        for rid, row in victims:
            if self.journal is not None:
                self.journal("delete", row)
            for index in self.indexes:
                index.delete(row, rid)
            self.heap.delete(rid)
        return len(victims)

    def update_where(self, predicate, updater):
        """Replace rows matching *predicate* with ``updater(row)``.

        Implemented as delete + re-insert, which is how small heap-file
        systems handle variable-length updates; returns the update count.
        """
        changed = 0
        for rid, row in list(self.scan_with_rids()):
            if predicate(row):
                new_row = tuple(updater(row))
                if len(new_row) != len(self.schema):
                    raise StorageError("updater changed row arity")
                if self.journal is not None:
                    self.journal("delete", row)
                    self.journal("insert", new_row)
                for index in self.indexes:
                    index.delete(row, rid)
                self.heap.delete(rid)
                new_rid = self.heap.insert(encode_record(new_row, self.schema))
                for index in self.indexes:
                    index.insert(new_row, new_rid)
                changed += 1
        return changed

    def row_count(self):
        return self.heap.record_count()

    def __repr__(self):
        return "Table({}, {} columns)".format(self.name, len(self.schema))
