"""Typed table API over a heap file."""

from repro.storage.heap import RID
from repro.storage.page import live_slots
from repro.storage.serialization import page_decoder
from repro.util.errors import StorageError


class Table:
    """A named relation: schema + heap file + attached secondary indexes."""

    def __init__(self, name, schema, heap, changed=lambda: None):
        self.name = name
        self.schema = schema
        self.heap = heap
        self._types = tuple(column.type for column in schema)
        self.indexes = []  # TableIndex objects, kept in sync by DML
        #: Called as every mutating method starts; the Database moves its
        #: ``generation`` stamp here.
        self.changed = changed
        #: Live records: one walk at open, then kept by every DML method.
        self._rows = heap.record_count()

    def attach_index(self, index):
        self.indexes.append(index)

    def insert(self, row):
        """Insert one row (sequence of values in schema order); return RID."""
        return self.insert_many((row,))[0]

    def insert_many(self, rows):
        """Insert *rows* in order, a heap page per pool round trip; return RIDs."""
        self.changed()
        rids = []
        with self.heap.appender(self._types) as append:
            for row in rows:
                rid = append(row)
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
        return (v for _, v in self.heap.scan_pages(decode) if v and len(v[0]))

    def scan(self):
        """Yield decoded rows (tuples) in storage order."""
        for vectors in self.scan_column_batches():
            yield from zip(*vectors)

    def scan_with_rids(self):
        decode = page_decoder(self._types, None)
        pages = self.heap.scan_pages(lambda data: (live_slots(data), decode(data)))
        for page_id, (slots, vectors) in pages:
            for slot, row in zip(slots, zip(*vectors)):
                yield RID(page_id, slot), row

    def read(self, rid):
        return self.heap.read(rid, self._types)

    def delete(self, rid):
        self.changed()
        row = self.read(rid) if self.indexes else None
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
            for index in self.indexes:
                index.delete(row, rid)
            self.heap.delete(rid)
            self._rows -= 1
        return len(victims)

    def row_count(self):
        return self._rows

    def __repr__(self):
        return "Table({}, {} columns)".format(self.name, len(self.schema))
