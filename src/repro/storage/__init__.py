"""Storage engine: the "Redbase" substrate.

The paper's prototype extends a student-built DBMS with a page-level buffer
and iterator-based execution.  This package provides the equivalent
substrate from scratch:

- :mod:`repro.storage.serialization` — compiled column-at-a-time page decoders.
- :mod:`repro.storage.disk` — page-granular file I/O (disk or in-memory).
- :mod:`repro.storage.page` — column-major (PAX) page layout over raw page bytes.
- :mod:`repro.storage.buffer` — pinning LRU buffer pool with write-back.
- :mod:`repro.storage.heap` — heap files of typed rows addressed by RID.
- :mod:`repro.storage.catalog` — persistent table catalog.
- :mod:`repro.storage.database` — the user-facing ``Database`` facade.
"""

from repro.storage.buffer import BufferPool
from repro.storage.database import Database
from repro.storage.disk import DiskManager, PAGE_SIZE
from repro.storage.heap import HeapFile, RID
from repro.storage.table import Table

__all__ = [
    "BufferPool",
    "Database",
    "DiskManager",
    "HeapFile",
    "PAGE_SIZE",
    "RID",
    "Table",
]
