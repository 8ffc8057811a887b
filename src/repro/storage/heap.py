"""Heap files: unordered row storage addressed by RID.

A heap file owns a contiguous range of page ids inside one
:class:`~repro.storage.disk.DiskManager` (one disk manager per table keeps
the layout trivial and matches the one-file-per-relation convention of
small systems like Redbase).  Inserts fill the last page and allocate a new
one when full; scans walk pages in order through the buffer pool.  Pages
are column-major (:mod:`repro.storage.page`) and typed: a call that reads
or writes values passes the schema's types.
"""

from repro.storage import page
from repro.storage.page import PageWriter


class RID:
    """Record identifier: ``(page_id, slot)``; stable for the row's lifetime."""

    __slots__ = ("page_id", "slot")

    def __init__(self, page_id, slot):
        self.page_id = page_id
        self.slot = slot

    def __repr__(self):
        return "RID({}, {})".format(self.page_id, self.slot)

    def __eq__(self, other):
        return (
            isinstance(other, RID)
            and self.page_id == other.page_id
            and self.slot == other.slot
        )

    def __hash__(self):
        return hash((RID, self.page_id, self.slot))


class HeapFile:
    """An append-friendly bag of rows over a buffer pool."""

    def __init__(self, pool):
        self.pool = pool

    def insert(self, row, types):
        """Store *row* (values of *types*); return its :class:`RID`."""
        with self.appender(types) as append:
            return append(row)

    def appender(self, types):
        """A ``with`` block yielding ``append(row) -> RID`` for rows of *types*.

        The tail page stays pinned while it fills and is encoded once,
        when it is full or the block ends (an error included), so a bulk
        insert makes one buffer-pool round trip and one encode per page.
        """
        return _Appender(self, types)

    def read(self, rid, types):
        """The row at *rid* (``None`` if deleted)."""
        with self.pool.pin(rid.page_id) as guard:
            return page.read_row(guard.data, types, rid.slot)

    def delete(self, rid):
        with self.pool.pin(rid.page_id) as guard:
            page.delete(guard.data, rid.slot)
            guard.mark_dirty()

    def scan_pages(self, decode):
        """Yield ``(page_id, decode(data))`` per page, in page order.

        *decode* runs under the pin and must return nothing that aliases
        the frame.
        """
        for page_id in range(self.pool.disk.page_count):
            with self.pool.pin(page_id) as guard:
                decoded = decode(guard.data)
            yield page_id, decoded

    def record_count(self):
        count = 0
        for page_id in range(self.pool.disk.page_count):
            with self.pool.pin(page_id) as guard:
                count += len(page.live_slots(guard.data))
        return count


class _Appender:
    """One :meth:`HeapFile.appender` block: the tail page, pinned while it fills."""

    def __init__(self, heap, types):
        self.pool = heap.pool
        self.types = types
        self.guard = None
        self.writer = None

    def __enter__(self):
        return self.append

    def __exit__(self, *exc):
        self._turn_to(None)

    def _turn_to(self, pin):
        """Encode and unpin the held page *before* ``pin()`` asks the pool for the next."""
        guard, writer = self.guard, self.writer
        self.guard = self.writer = None  # nothing held if pin() raises
        if guard is not None:
            try:
                if writer is not None:
                    writer.write(guard.data)
                    guard.mark_dirty()
            finally:
                guard.__exit__()
        if pin is not None:
            self.guard = pin()
            self.writer = PageWriter(self.types, self.guard.data)

    def append(self, row):
        pool = self.pool
        if self.guard is None:
            count = pool.disk.page_count
            if not count:  # refuse a row no page can hold before making the first page
                PageWriter(self.types, bytearray(pool.disk.page_size)).add(row)
            self._turn_to(lambda: pool.pin(count - 1) if count else pool.new_page())
        slot = self.writer.add(row)
        if slot is None:
            self._turn_to(pool.new_page)
            slot = self.writer.add(row)
        return RID(self.guard.page_id, slot)
