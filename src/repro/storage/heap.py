"""Heap files: unordered record storage addressed by RID.

A heap file owns a contiguous range of page ids inside one
:class:`~repro.storage.disk.DiskManager` (one disk manager per table keeps
the layout trivial and matches the one-file-per-relation convention of
small systems like Redbase).  Inserts fill the last page and allocate a new
one when full; scans walk pages in order through the buffer pool.
"""

from repro.storage.page import SlottedPage, max_record_size, read_directory
from repro.util.errors import StorageError


class RID:
    """Record identifier: ``(page_id, slot)``; stable across compaction."""

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
    """An append-friendly bag of records over a buffer pool."""

    def __init__(self, pool):
        self.pool = pool

    def insert(self, record):
        """Store *record* bytes; return its :class:`RID`."""
        with self.appender() as append:
            return append(record)

    def appender(self):
        """A ``with`` block yielding ``append(record) -> RID``.

        The tail page stays pinned while it fills, so a bulk insert makes
        one buffer-pool round trip per page instead of one per record.
        """
        return _Appender(self)

    def read(self, rid):
        """Return record bytes for *rid* (``None`` if deleted)."""
        with self.pool.pin(rid.page_id) as guard:
            return SlottedPage(guard.data).read(rid.slot)

    def delete(self, rid):
        with self.pool.pin(rid.page_id) as guard:
            SlottedPage(guard.data).delete(rid.slot)
            guard.mark_dirty()

    def scan(self):
        """Yield ``(rid, record_bytes)`` over all live records."""
        for page_id in range(self.pool.disk.page_count):
            with self.pool.pin(page_id) as guard:
                page = SlottedPage(guard.data)
                rows = list(page.records())
            for slot, record in rows:
                yield RID(page_id, slot), record

    def scan_pages(self, decode):
        """Yield ``(page_id, directory, decode(data, directory))`` per page.

        *decode* (a compiled page decoder) runs under the pin and must
        return nothing that aliases the frame; ``directory`` is the
        page's flat slot directory.  Page order matches :meth:`scan`.
        """
        for page_id in range(self.pool.disk.page_count):
            with self.pool.pin(page_id) as guard:
                directory = read_directory(guard.data)
                decoded = decode(guard.data, directory)
            yield page_id, directory, decoded

    def record_count(self):
        count = 0
        for page_id in range(self.pool.disk.page_count):
            with self.pool.pin(page_id) as guard:
                count += SlottedPage(guard.data).live_count()
        return count

    def vacuum(self):
        """Compact every page, reclaiming tombstone space in place."""
        for page_id in range(self.pool.disk.page_count):
            with self.pool.pin(page_id) as guard:
                SlottedPage(guard.data).compact()
                guard.mark_dirty()


class _Appender:
    """One :meth:`HeapFile.appender` block: the tail page, pinned while it fills."""

    def __init__(self, heap):
        self.pool = heap.pool
        self.limit = max_record_size(heap.pool.disk.page_size)
        self.guard = None
        self.page = None

    def __enter__(self):
        return self.append

    def __exit__(self, *exc):
        self._turn_to(None)

    def _turn_to(self, pin):
        """Unpin the held page *before* ``pin()`` asks the pool for the next."""
        if self.guard is not None:
            self.guard.__exit__()
        self.guard = self.page = None  # nothing held if pin() raises
        if pin is not None:
            self.guard = pin()
            self.page = SlottedPage(self.guard.data)

    def append(self, record):
        if len(record) > self.limit:
            raise StorageError(
                "record of {} bytes exceeds page capacity {}".format(
                    len(record), self.limit
                )
            )
        pool = self.pool
        if self.guard is None and pool.disk.page_count > 0:
            self._turn_to(lambda: pool.pin(pool.disk.page_count - 1))
        if self.guard is None or not self.page.has_room_for(len(record)):
            self._turn_to(pool.new_page)
        slot = self.page.insert(record)
        self.guard.mark_dirty()
        return RID(self.guard.page_id, slot)
