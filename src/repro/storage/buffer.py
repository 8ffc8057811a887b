"""Pinning LRU buffer pool.

The paper's host DBMS "includes a page-level buffer"; this is ours.  The
pool caches page images between the executor and the :class:`DiskManager`,
with pin counts to protect in-use frames and write-back of dirty pages on
eviction.  Statistics (hits, misses, evictions) feed the storage benchmarks
and let tests assert locality properties.
"""

import threading
from collections import OrderedDict

from repro.util.errors import BufferPoolError


class Frame:
    """One resident page image plus bookkeeping."""

    __slots__ = ("page_id", "data", "pin_count", "dirty")

    def __init__(self, page_id, data):
        self.page_id = page_id
        self.data = data
        self.pin_count = 0
        self.dirty = False


class PageGuard:
    """Context manager that pins a page for the duration of a ``with``."""

    def __init__(self, pool, frame):
        self._pool = pool
        self._frame = frame

    @property
    def data(self):
        return self._frame.data

    @property
    def page_id(self):
        return self._frame.page_id

    def mark_dirty(self):
        self._frame.dirty = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._pool.unpin(self._frame.page_id)


class BufferPool:
    """An LRU buffer pool over a :class:`~repro.storage.disk.DiskManager`.

    ``no_steal=True`` forbids writing dirty pages back outside an explicit
    :meth:`flush_all` — the policy WAL-mode databases need so the on-disk
    heap always equals the last checkpoint.  When every evictable frame is
    dirty under no-steal, the pool grows instead of evicting.
    """

    def __init__(self, disk, capacity=64, no_steal=False):
        if capacity < 1:
            raise BufferPoolError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        self.no_steal = no_steal
        self._frames = OrderedDict()  # page_id -> Frame, LRU order
        # Frame-table lock: queries served concurrently (QueryService
        # workers) scan the same table from several threads at once.
        # Guards the map, the LRU order, pin counts, and eviction — page
        # *bytes* need no lock (readers share immutably-sized buffers;
        # writers hold pins).
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.growths = 0

    # -- public API ---------------------------------------------------------

    def pin(self, page_id):
        """Pin *page_id* into memory and return a :class:`PageGuard`."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.hits += 1
                self._frames.move_to_end(page_id)
            else:
                self.misses += 1
                self._make_room()
                frame = Frame(page_id, self.disk.read_page(page_id))
                self._frames[page_id] = frame
            frame.pin_count += 1
            return PageGuard(self, frame)

    def unpin(self, page_id):
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None or frame.pin_count == 0:
                raise BufferPoolError(
                    "unpin of page {} that is not pinned".format(page_id)
                )
            frame.pin_count -= 1

    def new_page(self):
        """Allocate a fresh page on disk and return a pinned guard for it."""
        with self._lock:
            page_id = self.disk.allocate_page()
            self._make_room()
            frame = Frame(page_id, self.disk.read_page(page_id))
            frame.pin_count = 1
            self._frames[page_id] = frame
            return PageGuard(self, frame)

    def flush_all(self):
        """Write back every dirty frame (pages stay resident)."""
        with self._lock:
            for frame in self._frames.values():
                self._write_back(frame)

    def resident_pages(self):
        with self._lock:
            return set(self._frames)

    def stats(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resident": len(self._frames),
            "capacity": self.capacity,
        }

    # -- internals ----------------------------------------------------------

    def _make_room(self):
        if len(self._frames) < self.capacity:
            return
        for page_id, frame in self._frames.items():  # LRU order
            if frame.pin_count != 0:
                continue
            if self.no_steal and frame.dirty:
                continue
            self._write_back(frame)
            del self._frames[page_id]
            self.evictions += 1
            return
        if self.no_steal:
            # Every candidate is dirty: grow rather than violate no-steal.
            self.capacity += max(16, self.capacity // 2)
            self.growths += 1
            return
        raise BufferPoolError(
            "all {} frames are pinned; cannot evict".format(self.capacity)
        )

    def _write_back(self, frame):
        if frame.dirty:
            self.disk.write_page(frame.page_id, frame.data)
            frame.dirty = False
