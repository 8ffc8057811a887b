"""The ``Database`` facade: catalog + one buffered heap file per table.

This is the "local database" box from the paper's Figure 1.  It is purely a
storage/catalog object; query planning and execution live in
:mod:`repro.plan` and :mod:`repro.exec`, and the WSQ integration in
:mod:`repro.wsq`.
"""

import itertools

from repro.relational.schema import Column, Schema
from repro.storage.btree import BPlusTree
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile
from repro.storage.index import TableIndex
from repro.storage.table import Table
from repro.util.errors import CatalogError


class Database:
    """A collection of stored tables.

    ``Database()`` is fully in-memory; ``Database(directory)`` persists the
    catalog and heap files under *directory* and re-opens them next time.

    ``generation`` moves on every DDL statement and table mutation — all
    a planner reads here — so a plan remembered under one value is still
    the plan a planner would build while it stands.  ``analyze`` changes
    nothing a planner reads, so it does not move it.
    """

    def __init__(self, directory=None, buffer_capacity=64):
        self.directory = directory
        self.buffer_capacity = buffer_capacity
        self.catalog = Catalog(directory)
        self._tables = {}  # lower-name -> Table
        self._disks = []  # for close()
        self._index_pools = []  # buffer pools of open indexes, for flush()
        self.generation = 0
        self._generations = itertools.count(1)  # next() is atomic
        for name in self.catalog.table_names():
            self._open_table(name)
        for index_name in self.catalog.index_names():
            self._open_index(index_name)

    def _changed(self):
        self.generation = next(self._generations)

    # -- table lifecycle ----------------------------------------------------

    def create_table(self, name, columns):
        """Create a table.

        *columns* is a sequence of ``(name, DataType)`` pairs or
        :class:`Column` objects.
        """
        schema = Schema(
            [c if isinstance(c, Column) else Column(c[0], c[1]) for c in columns]
        )
        self.catalog.register(name, schema)
        return self._open_table(name)

    def create_table_from_rows(self, name, columns, rows):
        """Create a table and bulk-load *rows*; returns the table."""
        table = self.create_table(name, columns)
        table.insert_many(rows)
        return table

    def drop_table(self, name):
        self.catalog.unregister(name)
        self._tables.pop(name.lower(), None)
        self._changed()

    # -- indexes --------------------------------------------------------------

    def create_index(self, table_name, column_name, index_name=None):
        """Build a B+tree index over ``table.column`` from existing rows."""
        table = self.table(table_name)
        column_index = table.schema.resolve(column_name)
        index_name = index_name or "idx_{}_{}".format(
            table_name.lower(), column_name.lower()
        )
        self.catalog.register_index(index_name, table_name, column_name)
        index = self._open_index(index_name)
        index.tree.bulk_load(
            (row[column_index], rid) for rid, row in table.scan_with_rids()
        )
        self.catalog.set_index_root(index_name, index.tree.root_page_id)
        index._last_root = index.tree.root_page_id
        self._changed()
        return index

    def drop_index(self, index_name):
        self.catalog.unregister_index(index_name)
        for table in self._tables.values():
            table.indexes = [
                i for i in table.indexes if i.name.lower() != index_name.lower()
            ]
        self._changed()

    def index_names(self):
        return self.catalog.index_names()

    # -- statistics --------------------------------------------------------------

    def analyze(self, table_name=None):
        """ANALYZE one table (or all of them): ``{name: (rows, columns)}``.

        The planner reads no statistics, so this only reports each
        table's size and leaves ``generation`` (and every stored plan) be.
        """
        names = [table_name] if table_name else self.table_names()
        sizes = {}
        for name in names:
            table = self.table(name)
            sizes[name] = (table.row_count(), len(table.schema))
        return sizes

    def table(self, name):
        table = self._tables.get(name.lower())
        if table is None:
            raise CatalogError("unknown table {!r}".format(name))
        return table

    def has_table(self, name):
        return name.lower() in self._tables

    def table_names(self):
        return self.catalog.table_names()

    # -- maintenance --------------------------------------------------------

    def flush(self):
        for table in self._tables.values():
            table.heap.pool.flush_all()
        for pool in self._index_pools:
            pool.flush_all()
        for disk in self._disks:
            disk.sync()

    def close(self):
        self.flush()
        for disk in self._disks:
            disk.close()
        self._disks = []
        self._tables = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def buffer_stats(self):
        """Aggregate buffer-pool statistics across all tables."""
        total = {"hits": 0, "misses": 0, "evictions": 0}
        for table in self._tables.values():
            stats = table.heap.pool.stats()
            for key in total:
                total[key] += stats[key]
        return total

    # -- internals ----------------------------------------------------------

    def _open_table(self, name):
        disk = DiskManager(self.catalog.file_of(name))
        self._disks.append(disk)
        pool = BufferPool(disk, capacity=self.buffer_capacity)
        table = Table(
            name, self.catalog.schema_of(name), HeapFile(pool), self._changed
        )
        self._tables[name.lower()] = table
        self._changed()
        return table

    def _open_index(self, index_name):
        entry = self.catalog.index_entry(index_name)
        table = self.table(entry["table"])
        column_index = table.schema.resolve(entry["column"])
        key_type = table.schema[column_index].type
        disk = DiskManager(self.catalog.index_file_of(index_name))
        self._disks.append(disk)
        pool = BufferPool(disk, capacity=self.buffer_capacity)
        self._index_pools.append(pool)
        tree = BPlusTree(pool, key_type, root_page_id=entry["root"])

        def persist_root(name, root):
            self.catalog.set_index_root(name, root)

        index = TableIndex(
            entry["name"], entry["column"], column_index, tree, persist_root
        )
        table.attach_index(index)
        return index
