"""Page-granular storage: a disk-backed or in-memory page store.

The :class:`DiskManager` reads and writes fixed-size pages identified by a
zero-based page id.  It deliberately knows nothing about page contents; the
column-major page layout lives in :mod:`repro.storage.page`.
"""

import os

from repro.util.errors import StorageError

PAGE_SIZE = 4096


class DiskManager:
    """Fixed-size page I/O over a single file, or purely in memory.

    Passing ``path=None`` creates an in-memory store with identical
    semantics — the default for tests and benchmarks, and the reason the
    whole engine can run without touching the filesystem.
    """

    def __init__(self, path=None, page_size=PAGE_SIZE):
        self.page_size = page_size
        self.path = path
        self._closed = False
        self.reads = 0
        self.writes = 0
        if path is None:
            self._file = None
            self._pages = []
        else:
            self._pages = None
            exists = os.path.exists(path)
            self._file = open(path, "r+b" if exists else "w+b")
            size = os.path.getsize(path) if exists else 0
            if size % page_size != 0:
                raise StorageError(
                    "file {} size {} is not a multiple of the page size".format(
                        path, size
                    )
                )
            self._page_count = size // page_size

    @property
    def page_count(self):
        if self._pages is not None:
            return len(self._pages)
        return self._page_count

    def allocate_page(self):
        """Append a zeroed page and return its id."""
        self._check_open()
        if self._pages is not None:
            self._pages.append(bytearray(self.page_size))
            return len(self._pages) - 1
        page_id = self._page_count
        self._file.seek(page_id * self.page_size)
        self._file.write(b"\x00" * self.page_size)
        self._page_count += 1
        return page_id

    def read_page(self, page_id):
        """Return a mutable ``bytearray`` copy of the page."""
        self._check_open()
        self._check_page(page_id)
        self.reads += 1
        if self._pages is not None:
            return bytearray(self._pages[page_id])
        self._file.seek(page_id * self.page_size)
        data = self._file.read(self.page_size)
        if len(data) != self.page_size:
            raise StorageError("short read for page {}".format(page_id))
        return bytearray(data)

    def write_page(self, page_id, data):
        self._check_open()
        self._check_page(page_id)
        if len(data) != self.page_size:
            raise StorageError(
                "page write of {} bytes (expected {})".format(len(data), self.page_size)
            )
        self.writes += 1
        if self._pages is not None:
            self._pages[page_id] = bytearray(data)
            return
        self._file.seek(page_id * self.page_size)
        self._file.write(bytes(data))

    def sync(self):
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self):
        if self._closed:
            return
        if self._file is not None:
            self._file.flush()
            self._file.close()
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _check_open(self):
        if self._closed:
            raise StorageError("disk manager is closed")

    def _check_page(self, page_id):
        if not 0 <= page_id < self.page_count:
            raise StorageError(
                "page id {} out of range [0, {})".format(page_id, self.page_count)
            )
