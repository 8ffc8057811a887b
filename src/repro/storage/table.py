"""Typed table API over a heap file."""

from repro.storage.heap import RID
from repro.storage.page import live_slots
from repro.storage.serialization import decode_record, encode_record, page_decoder
from repro.util.errors import StorageError


class Table:
    """A named relation: schema + heap file + attached secondary indexes."""

    def __init__(self, name, schema, heap, changed=lambda: None):
        self.name = name
        self.schema = schema
        self.heap = heap
        self._types = tuple(column.type for column in schema)
        self.indexes = []  # TableIndex objects, kept in sync by DML
        #: Optional WAL hook: ``journal(op, row)`` called *before* the heap
        #: is touched (the write-ahead rule); installed by Database in WAL
        #: mode, absent during recovery replay.
        self.journal = None
        #: :class:`~repro.storage.stats.TableStats` from the last ANALYZE
        #: (``None`` until one runs; not invalidated by DML — like real
        #: systems, statistics go stale until re-analyzed).
        self.stats = None
        #: Called as every mutating method starts; the Database moves its
        #: ``generation`` stamp here.
        self.changed = changed
        #: Live records: one walk at open, then kept by every DML method.
        self._rows = heap.record_count()

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
        return self.insert_many((row,))[0]

    def insert_many(self, rows):
        """Insert *rows* in order, a heap page per pool round trip; return RIDs."""
        self.changed()
        rids = []
        with self.heap.appender() as append:
            for row in rows:
                if self.journal is not None:
                    self.journal("insert", row)
                rid = append(encode_record(row, self.schema))
                self._rows += 1
                for index in self.indexes:
                    index.insert(row, rid)
                rids.append(rid)
        return rids

    def scan_column_batches(self, columns=None, predicate=None):
        """Schema-typed column vectors, one group per heap page that keeps a row.

        Each group is a list with one vector per attribute (typed
        ``array`` for INT/FLOAT columns with no NULL kept from the page,
        plain lists otherwise) covering the page's rows in the storage
        order of :meth:`scan`.  *columns* names the positions a caller
        reads (``None`` = all): the others are not decoded and arrive as
        NULL-filled lists, so every vector still has one entry per row.
        *predicate* keeps only the rows it is true on, tested inside the
        page decoder (:func:`~repro.storage.serialization.page_decoder`
        says which predicates qualify; the columns it reads need not be
        in *columns*).  This feeds ``TableScan.next_batch()``: pages
        decode straight into the layout the operators execute on, with no
        row tuples between and no vector entry for a row that is dropped.
        """
        return self.scan_decoded(self.decoder(columns, predicate))

    def decoder(self, columns=None, predicate=None):
        """The page decoder :meth:`scan_column_batches` runs, for a caller
        that keeps it across scans; ``None`` when *predicate* may raise."""
        if columns is not None:
            columns = tuple(sorted(set(columns)))
            if len(columns) == len(self._types):
                columns = None  # share the bare call's decoder
        return page_decoder(self._types, columns, predicate)

    def scan_decoded(self, decode):
        """:meth:`scan_column_batches` through a kept :meth:`decoder`."""
        if decode is None:
            raise StorageError("the predicate may raise: not a scan predicate")
        return (v for _, _, v in self.heap.scan_pages(decode) if v and len(v[0]))

    def scan(self):
        """Yield decoded rows (tuples) in storage order."""
        for vectors in self.scan_column_batches():
            yield from zip(*vectors)

    def scan_with_rids(self):
        for page_id, directory, vectors in self.heap.scan_pages(page_decoder(self._types, None)):
            for slot, row in zip(live_slots(directory), zip(*vectors)):
                yield RID(page_id, slot), row

    def read(self, rid):
        record = self.heap.read(rid)
        if record is None:
            return None
        return decode_record(record, self.schema)

    def delete(self, rid):
        self.changed()
        row = self.read(rid) if (self.indexes or self.journal is not None) else None
        if row is not None and self.journal is not None:
            self.journal("delete", row)
        if row is not None:
            for index in self.indexes:
                index.delete(row, rid)
        self.heap.delete(rid)
        self._rows -= 1

    def delete_where(self, predicate):
        """Delete rows for which ``predicate(row)`` is truthy; return count."""
        self.changed()
        victims = [
            (rid, row) for rid, row in self.scan_with_rids() if predicate(row)
        ]
        for rid, row in victims:
            if self.journal is not None:
                self.journal("delete", row)
            for index in self.indexes:
                index.delete(row, rid)
            self.heap.delete(rid)
            self._rows -= 1
        return len(victims)

    def update_where(self, predicate, updater):
        """Replace rows matching *predicate* with ``updater(row)``.

        Implemented as delete + re-insert, which is how small heap-file
        systems handle variable-length updates; returns the update count.
        """
        self.changed()
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
                self._rows -= 1
                new_rid = self.heap.insert(encode_record(new_row, self.schema))
                self._rows += 1
                for index in self.indexes:
                    index.insert(new_row, new_rid)
                changed += 1
        return changed

    def row_count(self):
        return self._rows

    def __repr__(self):
        return "Table({}, {} columns)".format(self.name, len(self.schema))
