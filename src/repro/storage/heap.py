"""Heap files: unordered record storage addressed by RID.

A heap file owns a contiguous range of page ids inside one
:class:`~repro.storage.disk.DiskManager` (one disk manager per table keeps
the layout trivial and matches the one-file-per-relation convention of
small systems like Redbase).  Inserts fill the last page and allocate a new
one when full; scans walk pages in order through the buffer pool.
"""

from repro.storage.page import SlottedPage, max_record_size
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
        limit = max_record_size(self.pool.disk.page_size)
        if len(record) > limit:
            raise StorageError(
                "record of {} bytes exceeds page capacity {}".format(len(record), limit)
            )
        page_count = self.pool.disk.page_count
        if page_count > 0:
            last = page_count - 1
            with self.pool.pin(last) as guard:
                page = SlottedPage(guard.data)
                if page.has_room_for(len(record)):
                    slot = page.insert(record)
                    guard.mark_dirty()
                    return RID(last, slot)
        with self.pool.new_page() as guard:
            page = SlottedPage(guard.data)
            slot = page.insert(record)
            guard.mark_dirty()
            return RID(guard.page_id, slot)

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

    def scan_batches(self):
        """Yield one ``[(rid, record_bytes), ...]`` list per non-empty page.

        The batched counterpart of :meth:`scan`: each page is pinned once
        and its live records are emitted together, so batch consumers do
        one buffer-pool round trip per page instead of re-entering the
        generator per record.  Storage order matches :meth:`scan` exactly.
        """
        for page_id in range(self.pool.disk.page_count):
            with self.pool.pin(page_id) as guard:
                page = SlottedPage(guard.data)
                rows = list(page.records())
            if rows:
                yield [(RID(page_id, slot), record) for slot, record in rows]

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
